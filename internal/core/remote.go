package core

import (
	"errors"
	"time"

	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/vm"
	"github.com/agilla-go/agilla/internal/wire"
)

// ErrRemoteTimeout reports that a remote tuple space operation exhausted
// its retransmission budget without hearing a reply. Callers distinguish
// it from an OK=false reply, which means the operation executed but found
// no matching tuple.
var ErrRemoteTimeout = errors.New("core: remote operation timed out")

// RemoteOpBudget returns the worst-case wall time before a remote
// operation initiated with config c resolves: every transmission waits out
// the full timeout. Base-station tools use it to bound how long to run the
// simulation before a reply (or the timeout failure) must have arrived.
func RemoteOpBudget(c Config) time.Duration {
	c = c.withDefaults()
	return c.RemoteTimeout * time.Duration(1+max(0, c.RemoteRetries))
}

// The remote tuple space operation manager (Figure 4). Unlike migration,
// remote operations use unacknowledged end-to-end communication: "a request
// can fit in one message, and the operational semantics are not broken if a
// message is lost. To reduce the effects of message loss, the initiator
// timeouts after 2 seconds and re-transmits the request at most twice"
// (§3.2).

// pendingRemote tracks one in-flight remote operation. Exactly one of rec
// (an agent suspended on the instruction) or done (a base-station tool
// callback) is set.
type pendingRemote struct {
	reqID    uint16
	rec      *record
	done     func(wire.RemoteReply, error)
	kind     vm.RemoteKind
	dest     topology.Location
	req      wire.RemoteRequest
	attempts int
	timer    sim.Timer // retransmission timeout, bound to onRemoteTimeout by awaitRemote
	started  time.Duration
}

// startRemote handles EffectRemote: suspend the agent, ship the request,
// and resume it when the reply arrives or the retransmissions run out.
func (n *Node) startRemote(rec *record, out vm.Outcome) {
	rec.state = AgentRemote
	n.reqSeq++
	pr := &pendingRemote{
		reqID:   n.reqSeq,
		rec:     rec,
		kind:    out.Remote,
		dest:    out.Dest,
		started: n.sim.Now(),
	}
	pr.req = wire.RemoteRequest{
		ReqID:    pr.reqID,
		Op:       out.Remote,
		ReplyTo:  n.loc,
		Tuple:    out.Tuple,
		Template: out.Template,
	}
	// A remote operation on the local node short-circuits to the local
	// tuple space without touching the radio or the pending table.
	if out.Dest == n.loc {
		n.stats.RemoteInitiated++
		n.settleRemote(pr, n.performRemote(pr.req))
		return
	}
	n.awaitRemote(pr)
}

// awaitRemote enters pr in the pending table, binds its timeout and sends
// the first attempt.
func (n *Node) awaitRemote(pr *pendingRemote) {
	put(&n.remote, pr.reqID, pr)
	n.stats.RemoteInitiated++
	pr.timer.Init(n.sim, func() { n.onRemoteTimeout(pr) })
	n.sendRemote(pr)
}

func (n *Node) sendRemote(pr *pendingRemote) {
	pr.attempts++
	// Losses at any hop silently eat the request; only the timer saves us.
	n.tx = pr.req.Append(n.tx[:0])
	_ = n.net.SendRouted(pr.dest, radio.KindRemoteTS, n.tx)
	pr.timer.Reset(n.cfg.RemoteTimeout)
}

func (n *Node) onRemoteTimeout(pr *pendingRemote) {
	if n.remote[pr.reqID] != pr {
		return
	}
	if pr.attempts <= n.cfg.RemoteRetries {
		n.sendRemote(pr)
		return
	}
	delete(n.remote, pr.reqID)
	n.stats.RemoteFail++
	if pr.rec == nil {
		if pr.done != nil {
			pr.done(wire.RemoteReply{ReqID: pr.reqID, OK: false}, ErrRemoteTimeout)
		}
		return
	}
	if n.trace.RemoteDone != nil {
		n.trace.RemoteDone(n.loc, pr.rec.agent.ID, pr.kind, pr.dest, false, n.sim.Now()-pr.started)
	}
	// "Only probing operations are provided to prevent an agent from
	// blocking forever due to message loss" (§2.2): a lost operation
	// simply clears the condition code.
	n.resumeAgent(pr.rec, 0)
}

// servedKey identifies one remote request as seen by the responder: the
// initiator's per-node request sequence number is unique per initiator,
// so (initiator, reqID) names the operation across retransmissions.
type servedKey struct {
	from  topology.Location
	reqID uint16
}

// servedReply caches the outcome of a served request so a retransmission
// can be answered without re-executing the operation.
type servedReply struct {
	reply wire.RemoteReply
	at    time.Duration
}

// serveRemoteRequest is the responder side: perform the operation on the
// local tuple space and send the result back (§3.2).
//
// Remote requests are retransmitted end to end when the initiator hears
// no reply — including when the request arrived fine and only the reply
// was lost. Operations with side effects (rinp removes a tuple, rout
// inserts one) must therefore execute at most once per request: the last
// reply is cached per (initiator, reqID) and retransmissions are answered
// from the cache instead of re-performing the op.
func (n *Node) serveRemoteRequest(env wire.Envelope) {
	req, err := wire.DecodeRemoteRequest(env.Body)
	if err != nil {
		return
	}
	key := servedKey{from: req.ReplyTo, reqID: req.ReqID}
	sr, dup := n.served[key]
	if !dup {
		sr = servedReply{reply: n.performRemote(req)}
	}
	// (Re-)stamping on every hit keeps an entry alive for as long as its
	// initiator is still retransmitting, whatever timers it runs.
	n.rememberServed(key, sr)
	n.tx = sr.reply.Append(n.tx[:0])
	_ = n.net.SendRouted(req.ReplyTo, radio.KindRemoteTSR, n.tx)
}

// servedGraceFloor is the minimum idle time before a cached reply may be
// evicted. The responder cannot know the initiator's retransmission
// timers, so the floor must generously cover any sane configuration's
// gap between attempts; entries also refresh on every duplicate hit.
const servedGraceFloor = 30 * time.Second

// rememberServed caches a reply for duplicate suppression. Entries are
// garbage collected once no retransmission can plausibly still arrive:
// past the responder's own full remote-op budget and the generous flat
// floor, whichever is larger. An initiator's 16-bit reqID could only
// collide with a cached entry after wrapping within that window — tens of
// thousands of operations in seconds — which the per-op radio round trip
// makes unreachable.
func (n *Node) rememberServed(key servedKey, sr servedReply) {
	now := n.sim.Now()
	sr.at = now
	put(&n.served, key, sr)
	grace := max(2*RemoteOpBudget(n.cfg), servedGraceFloor)
	//lint:maprange each entry is tested and deleted independently
	for k, s := range n.served {
		if now-s.at > grace {
			delete(n.served, k)
		}
	}
}

// performRemote executes one remote operation against the local space.
// With replication, a probe the arena cannot satisfy falls back to the
// replica store: an rrdp reads any live replica, and an rinp consumes one
// by tombstoning it — the tombstone gossips outward and evicts the arena
// copy on the origin (see recvReplicaDelta), so the removal is
// network-wide even though the origin never saw the request.
func (n *Node) performRemote(req wire.RemoteRequest) wire.RemoteReply {
	reply := wire.RemoteReply{ReqID: req.ReqID}
	switch req.Op {
	case wire.OpRout:
		reply.OK = n.space.Out(req.Tuple) == nil
	case wire.OpRinp:
		t, ok := n.space.Inp(req.Template)
		if !ok && n.repl != nil {
			if e, hit := n.repl.set.LiveMatch(req.Template); hit {
				n.repl.set.Tombstone(e.Origin)
				t, ok = e.Tuple, true
			}
		}
		reply.OK, reply.Tuple = ok, t
	case wire.OpRrdp:
		t, ok := n.space.Rdp(req.Template)
		if !ok && n.repl != nil {
			if e, hit := n.repl.set.LiveMatch(req.Template); hit {
				t, ok = e.Tuple, true
			}
		}
		reply.OK, reply.Tuple = ok, t
	}
	return reply
}

// recvRemoteReply matches a reply to its pending request and resumes the
// initiating agent.
func (n *Node) recvRemoteReply(env wire.Envelope) {
	reply, err := wire.DecodeRemoteReply(env.Body)
	if err != nil {
		return
	}
	pr, ok := n.remote[reply.ReqID]
	if !ok {
		return // duplicate or late reply
	}
	delete(n.remote, pr.reqID)
	pr.timer.Stop()
	n.settleRemote(pr, reply)
}

// settleRemote applies a reply to the suspended agent: "If the operation is
// successful, the resulting tuple is placed onto the stack and the
// condition is set to 1" (§3.4).
func (n *Node) settleRemote(pr *pendingRemote, reply wire.RemoteReply) {
	if reply.OK {
		n.stats.RemoteOK++
	} else {
		n.stats.RemoteFail++
	}
	if pr.rec == nil {
		if pr.done != nil {
			pr.done(reply, nil)
		}
		return
	}
	if n.trace.RemoteDone != nil {
		n.trace.RemoteDone(n.loc, pr.rec.agent.ID, pr.kind, pr.dest, reply.OK, n.sim.Now()-pr.started)
	}
	cond := int16(0)
	if reply.OK {
		cond = 1
		if pr.kind == vm.RemoteInp || pr.kind == vm.RemoteRdp {
			if err := pr.rec.agent.PushFields(reply.Tuple.Fields); err != nil {
				n.killAgent(pr.rec, err)
				return
			}
		}
	}
	n.resumeAgent(pr.rec, cond)
}
