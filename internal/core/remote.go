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
// callback) is set. Like the transfer records, it comes from its shard's
// free list with its timer bound once, when it was first made.
type pendingRemote struct {
	n        *Node // the initiating node
	rec      *record
	done     func(wire.RemoteReply, error)
	dest     topology.Location
	req      wire.RemoteRequest
	attempts int
	timer    sim.Timer // retransmission timeout
	started  time.Duration
}

func (pr *pendingRemote) clock() *sim.Timer { return &pr.timer }

// newRemote takes a remote-operation record for an op of kind op to dest
// from the shard's free list, or makes one and binds its timer.
func (n *Node) newRemote(op wire.RemoteOp, dest topology.Location) *pendingRemote {
	pr := reuse(&n.remFree, n.sim)
	if pr == nil {
		pr = new(pendingRemote)
		pr.timer.Init(n.sim, func() {
			if pr.n != nil { // nil: released armed (see reuse)
				pr.n.onRemoteTimeout(pr)
			}
		})
	}
	pr.n, pr.dest, pr.req.Op = n, dest, op
	return pr
}

// releaseRemote stops pr's timer and returns it, wiped, to the free list.
func (n *Node) releaseRemote(pr *pendingRemote) {
	pr.timer.Stop()
	*pr = pendingRemote{timer: pr.timer} // same address: queued entries still point at it
	n.remFree = append(n.remFree, pr)
}

// startRemote handles EffectRemote: suspend the agent, ship the request,
// and resume it when the reply arrives or the retransmissions run out.
func (n *Node) startRemote(rec *record, out vm.Outcome) {
	rec.state = AgentRemote
	pr := n.newRemote(out.Remote, out.Dest)
	pr.rec, pr.req.Tuple, pr.req.Template = rec, out.Tuple, out.Template
	n.beginRemote(pr)
}

// beginRemote numbers pr's request and starts it, counted once whoever
// asked. An operation on the local node short-circuits to the local
// tuple space without touching the radio or the open sessions; any other
// enters the open sessions and sends the first attempt.
func (n *Node) beginRemote(pr *pendingRemote) {
	n.reqSeq++
	pr.req.ReqID, pr.req.ReplyTo = n.reqSeq, n.loc
	pr.started = n.sim.Now()
	n.stats.RemoteInitiated++
	if pr.dest == n.loc {
		n.settleRemote(pr, n.performRemote(pr.req), nil)
		return
	}
	s := n.session()
	s.remote = append(s.remote, pr)
	n.sendRemote(pr)
}

func (n *Node) sendRemote(pr *pendingRemote) {
	pr.attempts++
	// Losses at any hop silently eat the request; only the timer saves us.
	n.tx = pr.req.Append(n.tx[:0])
	_ = n.net.SendRouted(pr.dest, radio.KindRemoteTS, n.tx)
	pr.timer.Reset(n.cfg.RemoteTimeout)
}

// onRemoteTimeout retransmits, or settles an operation whose retries ran
// out as a failed one. "Only probing operations are provided to prevent an
// agent from blocking forever due to message loss" (§2.2): a lost
// operation simply clears the condition code.
func (n *Node) onRemoteTimeout(pr *pendingRemote) {
	if n.ses.request(pr.req.ReqID) != pr {
		return
	}
	if pr.attempts <= n.cfg.RemoteRetries {
		n.sendRemote(pr)
		return
	}
	remove(&n.ses.remote, pr)
	n.settleRemote(pr, wire.RemoteReply{ReqID: pr.req.ReqID}, ErrRemoteTimeout)
}

// servedKey identifies one remote request as seen by the responder: the
// initiator's per-node request sequence number is unique per initiator,
// so (initiator, reqID) names the operation across retransmissions.
type servedKey struct {
	from  topology.Location
	reqID uint16
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
	s := n.session()
	var reply wire.RemoteReply
	if i := s.served.find(key); i >= 0 {
		reply = s.served[i].val
	} else {
		reply = n.performRemote(req)
	}
	// (Re-)stamping on every hit keeps an entry alive for as long as its
	// initiator is still retransmitting, whatever timers it runs; it goes
	// once none can plausibly still arrive. An initiator's 16-bit reqID
	// could only collide with a cached entry after wrapping within that
	// window, which the per-op radio round trip makes unreachable.
	grace := max(2*RemoteOpBudget(n.cfg), servedGraceFloor)
	s.served.note(key, reply, n.sim.Now(), grace)
	n.tx = reply.Append(n.tx[:0])
	_ = n.net.SendRouted(req.ReplyTo, radio.KindRemoteTSR, n.tx)
}

// servedGraceFloor is the minimum idle time before a cached reply may be
// evicted. The responder cannot know the initiator's retransmission
// timers, so the floor must generously cover any sane configuration's
// gap between attempts; entries also refresh on every duplicate hit.
const servedGraceFloor = 30 * time.Second

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
	pr := n.ses.request(reply.ReqID)
	if pr == nil {
		return // duplicate or late reply
	}
	remove(&n.ses.remote, pr)
	n.settleRemote(pr, reply, nil)
}

// settleRemote concludes a remote operation out of the open sessions and
// releases its record: it hands the reply (and err, ErrRemoteTimeout when
// the retries ran out) to a base-station callback, or applies it to the
// suspended agent: "If the operation is successful, the resulting tuple
// is placed onto the stack and the condition is set to 1" (§3.4).
func (n *Node) settleRemote(pr *pendingRemote, reply wire.RemoteReply, err error) {
	rec, done, op, dest, started := pr.rec, pr.done, pr.req.Op, pr.dest, pr.started
	n.releaseRemote(pr)
	if reply.OK {
		n.stats.RemoteOK++
	} else {
		n.stats.RemoteFail++
	}
	if rec == nil {
		if done != nil {
			done(reply, err)
		}
		return
	}
	if n.trace.RemoteDone != nil {
		n.trace.RemoteDone(n.loc, rec.agent.ID, op, dest, reply.OK, n.sim.Now()-started)
	}
	cond := int16(0)
	if reply.OK {
		cond = 1
		if op == vm.RemoteInp || op == vm.RemoteRdp {
			if err := rec.agent.PushFields(reply.Tuple.Fields); err != nil {
				n.killAgent(rec, err)
				return
			}
		}
	}
	n.resumeAgent(rec, cond)
}
