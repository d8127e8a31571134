package agilla

// Middleware events. Everything the engine reports — agent, migration,
// tuple space, node and replica occurrences — reaches a host as one Event
// record, delivered through channel subscriptions created by
// Network.Events. Internally the records are filled from the same core
// trace hooks the experiment harness uses, and the same hooks keep the
// agent registry behind the Agent handles.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/agilla-go/agilla/internal/wire"
)

// MigKind identifies how an agent materialized on, or left, a node: the
// four migration instructions of §2.2 plus base-station injection. String
// returns the assembly mnemonic ("smove", "wclone", "inject"); Strong
// reports whether full state travels with the agent, Clone whether the
// original keeps running.
type MigKind = wire.MigKind

// Migration kinds.
const (
	MigStrongMove  = wire.MigStrongMove
	MigWeakMove    = wire.MigWeakMove
	MigStrongClone = wire.MigStrongClone
	MigWeakClone   = wire.MigWeakClone
	MigInject      = wire.MigInject
)

// RemoteKind identifies a remote tuple space operation (§2.2: only
// probing operations are provided remotely, so an agent cannot block
// forever on message loss). String returns the instruction mnemonic
// ("rout", "rinp", "rrdp").
type RemoteKind = wire.RemoteOp

// Remote operation kinds.
const (
	RemoteOut = wire.OpRout
	RemoteInp = wire.OpRinp
	RemoteRdp = wire.OpRrdp
)

// EventKind says what an Event reports and so which of its fields are
// set; use it with OfKind to subscribe to a subset of the stream.
type EventKind uint8

// Event kinds. Every event sets Kind, At and Node; each kind lists the
// further fields it sets, and leaves the rest zero.
const (
	// EventAgentArrived: an agent materialized on Node — a completed
	// injection, a completed move hop, or a clone instantiation. Sets
	// AgentID, Mig (how it got here) and Peer (the node it came from).
	EventAgentArrived EventKind = iota + 1
	// EventAgentHalted: an agent voluntarily executed halt. Sets AgentID.
	EventAgentHalted
	// EventAgentDied: an agent died. Sets AgentID and Err: the fatal
	// error, ErrNodeDown when its node went down, or ErrKilled when the
	// host killed it (Node.KillAgent). Err is never nil.
	EventAgentDied
	// EventMigrationStarted: a hop transfer began on the sending Node
	// (once per hop of a multi-hop move). Sets AgentID, Mig and Peer (the
	// final destination).
	EventMigrationStarted
	// EventMigrationDone: the sender-side conclusion of a hop transfer.
	// Sets AgentID, Mig, Peer (the final destination) and OK (whether the
	// receiver acknowledged the handoff; a failed hop resumes the agent
	// on the sender with condition zero).
	EventMigrationDone
	// EventRemoteDone: an agent-initiated remote tuple space operation
	// resolved on its initiator — a reply arrived, or the retransmission
	// budget ran out. Sets AgentID, Op, Peer (the operation's target), OK
	// (a timed-out or no-match operation clears the agent's condition
	// code instead) and Elapsed (initiation to resolution, virtual time).
	EventRemoteDone
	// EventTupleOut: a tuple was inserted into Node's local space,
	// whatever inserted it (an agent's out, a remote rout, a context
	// tuple, or the host API). Sets Tuple.
	EventTupleOut
	// EventReactionFired: a tuple insertion triggered a reaction
	// registered by an agent (§3.2 Tuple Space Manager). Sets AgentID
	// (the reaction's owner) and Tuple (the insertion that matched).
	EventReactionFired
	// EventNodeDied: a mote went down — a scripted fault, churn, or
	// battery exhaustion. Sets Cause. Hosted agents report their own
	// EventAgentDied, carrying ErrNodeDown, first.
	EventNodeDied
	// EventNodeRecovered: a dead mote finished its reboot and is back on
	// the air with empty spaces, re-seeded context tuples, and a fresh
	// battery. Sets nothing further.
	EventNodeRecovered
	// EventNodeMoved: a mote relocated, agents and tuples aboard. Node is
	// its new address; sets Peer (the vacated location).
	EventNodeMoved
	// EventEnergyExhausted: a battery emptied; the EventNodeDied it
	// causes follows immediately. Sets UsedJ, the emptied battery's drain
	// in joules (the cells installed at death; a revived mote's earlier
	// batteries are not included).
	EventEnergyExhausted
	// EventReplicaSynced: a gossip delta changed Node's replica store
	// under WithReplication. Sets Peer (the delta's sender), Added
	// (entries accepted) and Removed (live replicas evicted by
	// tombstones). Quiet gossip rounds publish no event.
	EventReplicaSynced
	// EventTupleRecovered: a revived node re-inserted a tuple it had
	// originated before crashing, streamed back out of a neighbor's
	// replica store by anti-entropy gossip. Sets Tuple.
	EventTupleRecovered
)

var eventKindNames = [...]string{
	EventAgentArrived:     "agent-arrived",
	EventAgentHalted:      "agent-halted",
	EventAgentDied:        "agent-died",
	EventMigrationStarted: "migration-started",
	EventMigrationDone:    "migration-done",
	EventRemoteDone:       "remote-done",
	EventTupleOut:         "tuple-out",
	EventReactionFired:    "reaction-fired",
	EventNodeDied:         "node-died",
	EventNodeRecovered:    "node-recovered",
	EventNodeMoved:        "node-moved",
	EventEnergyExhausted:  "energy-exhausted",
	EventReplicaSynced:    "replica-synced",
	EventTupleRecovered:   "tuple-recovered",
}

func (k EventKind) String() string {
	if k == 0 || int(k) >= len(eventKindNames) {
		return fmt.Sprintf("event(%d)", uint8(k))
	}
	return eventKindNames[k]
}

// Event is one middleware occurrence somewhere in the network. Kind says
// what happened and which of the fields below it sets (see the EventKind
// constants); the others are zero.
//
//	for e := range nw.Events(agilla.OfKind(agilla.EventAgentDied)) {
//		fmt.Println(e.AgentID, e.Err)
//	}
type Event struct {
	Kind EventKind
	// At is the virtual time of the occurrence, Node where it occurred.
	At   time.Duration
	Node Location
	// AgentID is the agent concerned; 0 for the kinds that concern none.
	AgentID uint16
	Mig     MigKind
	Op      RemoteKind
	// Peer is the other location involved: where an agent came from or
	// is headed, a remote operation's target, a moved mote's vacated
	// address, a replica delta's sender.
	Peer    Location
	OK      bool
	Elapsed time.Duration
	Tuple   Tuple
	Err     error
	Cause   DownCause
	UsedJ   float64
	Added   int
	Removed int
}

// String renders the event readably for logs.
func (e Event) String() string {
	verdict := "ok"
	if !e.OK {
		verdict = "failed"
	}
	switch e.Kind {
	case EventAgentArrived:
		return fmt.Sprintf("agent %d arrived at %v from %v (%v)", e.AgentID, e.Node, e.Peer, e.Mig)
	case EventAgentHalted:
		return fmt.Sprintf("agent %d halted at %v", e.AgentID, e.Node)
	case EventAgentDied:
		return fmt.Sprintf("agent %d died at %v: %v", e.AgentID, e.Node, e.Err)
	case EventMigrationStarted:
		return fmt.Sprintf("agent %d %v %v -> %v", e.AgentID, e.Mig, e.Node, e.Peer)
	case EventMigrationDone:
		return fmt.Sprintf("agent %d %v %v -> %v %s", e.AgentID, e.Mig, e.Node, e.Peer, verdict)
	case EventRemoteDone:
		return fmt.Sprintf("agent %d %v %v -> %v %s in %v", e.AgentID, e.Op, e.Node, e.Peer, verdict, e.Elapsed)
	case EventTupleOut:
		return fmt.Sprintf("tuple %v out at %v", e.Tuple, e.Node)
	case EventReactionFired:
		return fmt.Sprintf("reaction of agent %d fired at %v on %v", e.AgentID, e.Node, e.Tuple)
	case EventNodeDied:
		return fmt.Sprintf("node %v died (%v)", e.Node, e.Cause)
	case EventNodeRecovered:
		return fmt.Sprintf("node %v recovered", e.Node)
	case EventNodeMoved:
		return fmt.Sprintf("node moved %v -> %v", e.Peer, e.Node)
	case EventEnergyExhausted:
		return fmt.Sprintf("node %v exhausted its battery (%.3g J)", e.Node, e.UsedJ)
	case EventReplicaSynced:
		return fmt.Sprintf("node %v synced replica from %v (+%d -%d)", e.Node, e.Peer, e.Added, e.Removed)
	case EventTupleRecovered:
		return fmt.Sprintf("node %v recovered tuple %v", e.Node, e.Tuple)
	default:
		return fmt.Sprintf("%v at %v", e.Kind, e.Node)
	}
}

// EventFilter selects a subset of the event stream; a subscription keeps
// an event only if every filter passes. Combine the provided constructors
// or write any predicate over Event's fields.
type EventFilter func(Event) bool

// OfKind keeps events of the given kinds.
func OfKind(kinds ...EventKind) EventFilter {
	set := make(map[EventKind]bool, len(kinds))
	for _, k := range kinds {
		set[k] = true
	}
	return func(e Event) bool { return set[e.Kind] }
}

// OnNode keeps events occurring on the given nodes.
func OnNode(locs ...Location) EventFilter {
	set := make(map[Location]bool, len(locs))
	for _, l := range locs {
		set[l] = true
	}
	return func(e Event) bool { return set[e.Node] }
}

// OfAgent keeps events concerning the given agents. Events of the seven
// kinds that carry no agent (tuple-out, the four node kinds, replica-synced,
// tuple-recovered) never pass.
func OfAgent(ids ...uint16) EventFilter {
	set := make(map[uint16]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return func(e Event) bool { return e.AgentID != 0 && set[e.AgentID] }
}

// stream decouples the single-threaded simulation from channel consumers:
// the simulation pushes into an unbounded queue without ever blocking,
// and a pump goroutine forwards the queue to the subscriber's channel in
// order, taking the whole queue at a time so nothing it has delivered
// stays reachable. After close, queued items remain deliverable; the
// channel closes once they are drained.
type stream[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []T
	closed bool
	out    chan T
}

func newStream[T any]() *stream[T] {
	s := &stream[T]{out: make(chan T, 16)}
	s.cond = sync.NewCond(&s.mu)
	go s.pump()
	return s
}

func (s *stream[T]) push(v T) {
	s.mu.Lock()
	if !s.closed {
		s.queue = append(s.queue, v)
		s.cond.Signal()
	}
	s.mu.Unlock()
}

func (s *stream[T]) close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Signal()
	}
	s.mu.Unlock()
}

func (s *stream[T]) pump() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		batch := s.queue
		s.queue = nil
		s.mu.Unlock()
		if len(batch) == 0 {
			close(s.out)
			return
		}
		for _, v := range batch {
			s.out <- v
		}
	}
}

// subscription is one Events channel or Space.Watch: send offers it an
// event and reports whether it is still live, end closes its stream.
// publish drops a subscription once send reports it ended, and Close
// ends whatever remains.
type subscription struct {
	send func(Event) bool
	end  func()
}

// events is the per-network dispatch state behind Events and
// Space.Watch. live mirrors len(subs) so a tap can tell, without the
// lock, that nobody listens.
type events struct {
	mu     sync.Mutex
	subs   []subscription
	live   atomic.Int32
	closed bool
}

// Events subscribes to the middleware event stream. Events occurring
// after the call (while the simulation runs) are delivered to the
// returned channel in occurrence order; an event is delivered only if
// every filter passes. Subscriptions never block or perturb the
// simulation — events queue without bound until read — so the channel
// can be drained between Run calls from the same goroutine, or
// concurrently from another.
//
// Under WithWorkers(n > 1), events from different nodes executing
// concurrently may interleave on the channel in nondeterministic order
// (their At timestamps stay exact and each node's own events stay
// ordered). Consumers needing a cross-node order should sort by At,
// or filter with OnNode; the simulation itself remains deterministic.
//
// The channel closes after Network.Close, once already-queued events
// have been drained.
func (nw *Network) Events(filters ...EventFilter) <-chan Event {
	st := newStream[Event]()
	nw.subscribe(subscription{end: st.close, send: func(e Event) bool {
		for _, f := range filters {
			if !f(e) {
				return true
			}
		}
		st.push(e)
		return true
	}})
	return st.out
}

// subscribe adds sub to the stream, or ends it at once on a closed
// network.
func (nw *Network) subscribe(sub subscription) {
	nw.ev.mu.Lock()
	defer nw.ev.mu.Unlock()
	if nw.ev.closed {
		sub.end()
		return
	}
	nw.ev.subs = append(nw.ev.subs, sub)
	nw.ev.live.Store(int32(len(nw.ev.subs)))
}

// Close ends every Events and Watch subscription. The contract, exactly:
//
//   - Every event published before Close remains deliverable: the
//     subscription channel keeps yielding queued items in order.
//   - Each channel closes once its queue is drained; a fully-drained
//     channel closes immediately. Ranging over the channel therefore
//     always terminates after Close.
//   - Events occurring after Close are delivered nowhere.
//   - Each subscription's pump goroutine exits once its channel has been
//     drained to close — but a pump blocked on an unread channel holds
//     its goroutine, so abandoning an undrained channel after Close
//     leaks exactly that pump until the channel is read or the process
//     ends. Drain (or never subscribe) if goroutine hygiene matters;
//     TestCloseDrainsAndReleasesGoroutines pins this behavior.
//   - Close is idempotent, and subscribing after Close yields an
//     immediately-closed channel.
//
// On a bridged network (WithTransportBridge) Close also tears down the
// border: the transport closes and frames to peer-owned locations are
// dropped from then on. The local simulation itself remains usable.
func (nw *Network) Close() error {
	var err error
	if nw.bridge != nil {
		err = nw.bridge.Close()
	}
	nw.ev.mu.Lock()
	defer nw.ev.mu.Unlock()
	if nw.ev.closed {
		return err
	}
	nw.ev.closed = true
	for _, sub := range nw.ev.subs {
		sub.end()
	}
	nw.ev.subs = nil
	nw.ev.live.Store(0)
	return err
}

// publish offers one event to every subscription, and drops those it
// ended.
func (nw *Network) publish(e Event) {
	nw.ev.mu.Lock()
	defer nw.ev.mu.Unlock()
	live := nw.ev.subs[:0]
	for _, sub := range nw.ev.subs {
		if sub.send(e) {
			live = append(live, sub)
		} else {
			sub.end()
		}
	}
	clear(nw.ev.subs[len(live):])
	nw.ev.subs = live
	nw.ev.live.Store(int32(len(live)))
}

// installTaps points the deployment's trace hooks at the agent registry
// and the event stream; New calls it once. The Network owns its
// deployment's trace; nothing else writes these hooks. The agent hooks
// keep the registry whoever listens. Past that, an event costs one
// atomic load while nothing subscribes: no Event is built, no clock is
// read and no lock is taken.
func (nw *Network) installTaps() {
	tr := nw.d.Trace
	listening := func() bool { return nw.ev.live.Load() > 0 }
	// Stamp events with the reporting node's clock: under a parallel
	// executor it is exact mid-run where the executor-wide clock is only
	// barrier-accurate.
	now := nw.d.NowAt
	emit := func(kind EventKind, node Location, e Event) {
		e.Kind, e.At, e.Node = kind, now(node), node
		nw.publish(e)
	}
	tr.AgentArrived = func(node Location, id uint16, kind MigKind, from Location) {
		// An injection's arrival mints the ID; a move or clone reuses a
		// live one.
		nw.agents.update(id, now(node), kind == MigInject, func(info *AgentInfo) {
			info.Loc, info.State = node, AgentReady
		})
		if listening() {
			emit(EventAgentArrived, node, Event{AgentID: id, Mig: kind, Peer: from})
		}
	}
	tr.AgentCloned = func(node Location, parent, clone uint16) {
		nw.agents.cloned(now(node), node, parent, clone)
	}
	tr.AgentHalted = func(node Location, id uint16) {
		nw.agents.finish(now(node), node, id, true, nil)
		if listening() {
			emit(EventAgentHalted, node, Event{AgentID: id})
		}
	}
	tr.AgentDied = func(node Location, id uint16, err error) {
		nw.agents.finish(now(node), node, id, false, err)
		if listening() {
			emit(EventAgentDied, node, Event{AgentID: id, Err: err})
		}
	}
	tr.MigrationStarted = func(node Location, id uint16, kind MigKind, dest Location) {
		nw.agents.update(id, now(node), kind == MigInject, func(info *AgentInfo) {
			info.Loc, info.State = node, AgentMigrating
		})
		if listening() {
			emit(EventMigrationStarted, node, Event{AgentID: id, Mig: kind, Peer: dest})
		}
	}
	tr.MigrationDone = func(node Location, id uint16, kind MigKind, dest Location, ok bool) {
		nw.agents.update(id, now(node), false, func(info *AgentInfo) {
			switch {
			case !ok:
				// Failed handoff: the agent resumes on the sending node
				// (which may be a relay) with condition zero.
				info.Loc, info.State = node, AgentReady
			case !kind.Clone():
				// Clone transfers travel under the parent's ID (the
				// clone's ID is minted at the destination), so crediting
				// them would inflate a stationary cloning agent's hops.
				info.Hops++
			}
		})
		if listening() {
			emit(EventMigrationDone, node, Event{AgentID: id, Mig: kind, Peer: dest, OK: ok})
		}
	}
	tr.RemoteDone = func(node Location, id uint16, op RemoteKind, dest Location, ok bool, elapsed time.Duration) {
		if listening() {
			emit(EventRemoteDone, node, Event{AgentID: id, Op: op, Peer: dest, OK: ok, Elapsed: elapsed})
		}
	}
	tr.TupleOut = func(node Location, t Tuple) {
		if listening() {
			emit(EventTupleOut, node, Event{Tuple: t})
		}
	}
	tr.ReactionFired = func(node Location, id uint16, t Tuple) {
		if listening() {
			emit(EventReactionFired, node, Event{AgentID: id, Tuple: t})
		}
	}
	tr.NodeDied = func(node Location, cause DownCause) {
		if listening() {
			emit(EventNodeDied, node, Event{Cause: cause})
		}
	}
	tr.NodeRecovered = func(node Location) {
		if listening() {
			emit(EventNodeRecovered, node, Event{})
		}
	}
	tr.NodeMoved = func(from, to Location) {
		// Agents ride along: their records follow the mote, so handles
		// resolve to the new address (Location/Host/Kill keep working).
		for _, id := range nw.d.Node(to).AgentIDs() {
			nw.agents.update(id, now(to), false, func(info *AgentInfo) { info.Loc = to })
		}
		if listening() {
			emit(EventNodeMoved, to, Event{Peer: from})
		}
	}
	tr.EnergyExhausted = func(node Location, usedJ float64) {
		if listening() {
			emit(EventEnergyExhausted, node, Event{UsedJ: usedJ})
		}
	}
	tr.ReplicaSynced = func(node, peer Location, added, removed int) {
		if listening() {
			emit(EventReplicaSynced, node, Event{Peer: peer, Added: added, Removed: removed})
		}
	}
	tr.TupleRecovered = func(node Location, t Tuple) {
		if listening() {
			emit(EventTupleRecovered, node, Event{Tuple: t})
		}
	}
}
