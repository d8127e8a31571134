package agilla

// Middleware events. Everything the engine reports — agent, migration,
// tuple space, node and replica occurrences — reaches a host as one Event
// record, delivered through channel subscriptions created by
// Network.Events. Internally the records are filled from the same core
// trace hooks the experiment harness uses.

import (
	"fmt"
	"sync"
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
	// EventAgentDied: an agent died with an error. Sets AgentID and Err.
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
	// EventNodeDied: a mote went down — a scripted fault, the host API,
	// or battery exhaustion. Sets Cause. Hosted agents report their own
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

// eventSub is one Events subscription.
type eventSub struct {
	filters []EventFilter
	st      *stream[Event]
}

// watchReg is one live Space.Watch registration. loc tracks the watched
// node across relocations so death can be matched to the right watches;
// once makes teardown idempotent between Network.Close and the node-death
// path.
type watchReg struct {
	loc    Location
	remove func()
	st     *stream[Tuple]
	once   sync.Once
}

func (w *watchReg) closeWatch() {
	w.once.Do(func() {
		w.remove()
		w.st.close()
	})
}

// events is the per-network dispatch state behind Events and
// Space.Watch.
type events struct {
	mu        sync.Mutex
	installed bool
	subs      []*eventSub
	watches   []*watchReg
	closers   []func()
	closed    bool
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
	sub := &eventSub{filters: filters, st: newStream[Event]()}
	nw.ev.mu.Lock()
	defer nw.ev.mu.Unlock()
	if nw.ev.closed {
		sub.st.close()
		return sub.st.out
	}
	nw.installTaps()
	nw.ev.subs = append(nw.ev.subs, sub)
	nw.ev.closers = append(nw.ev.closers, sub.st.close)
	return sub.st.out
}

// Close ends every event and watch subscription. The contract, exactly:
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
	for _, c := range nw.ev.closers {
		c()
	}
	nw.ev.subs = nil
	nw.ev.closers = nil
	return err
}

// publish fans one event out to every matching subscription.
func (nw *Network) publish(e Event) {
	nw.ev.mu.Lock()
	defer nw.ev.mu.Unlock()
subs:
	for _, sub := range nw.ev.subs {
		for _, f := range sub.filters {
			if !f(e) {
				continue subs
			}
		}
		sub.st.push(e)
	}
}

// installTaps fills Events from the deployment's internal trace hooks,
// once. The Network owns its deployment's trace; nothing else writes
// these hooks.
func (nw *Network) installTaps() {
	if nw.ev.installed {
		return
	}
	nw.ev.installed = true
	tr := nw.d.Trace
	// Stamp events with the reporting node's clock: under a parallel
	// executor it is exact mid-run where the executor-wide clock is only
	// barrier-accurate.
	emit := func(kind EventKind, node Location, e Event) {
		e.Kind, e.At, e.Node = kind, nw.d.NowAt(node), node
		nw.publish(e)
	}
	tr.AgentArrived = func(node Location, id uint16, kind MigKind, from Location) {
		emit(EventAgentArrived, node, Event{AgentID: id, Mig: kind, Peer: from})
	}
	tr.AgentHalted = func(node Location, id uint16) {
		emit(EventAgentHalted, node, Event{AgentID: id})
	}
	tr.AgentDied = func(node Location, id uint16, err error) {
		emit(EventAgentDied, node, Event{AgentID: id, Err: err})
	}
	tr.MigrationStarted = func(node Location, id uint16, kind MigKind, dest Location) {
		emit(EventMigrationStarted, node, Event{AgentID: id, Mig: kind, Peer: dest})
	}
	tr.MigrationDone = func(node Location, id uint16, kind MigKind, dest Location, ok bool) {
		emit(EventMigrationDone, node, Event{AgentID: id, Mig: kind, Peer: dest, OK: ok})
	}
	tr.RemoteDone = func(node Location, id uint16, op RemoteKind, dest Location, ok bool, elapsed time.Duration) {
		emit(EventRemoteDone, node, Event{AgentID: id, Op: op, Peer: dest, OK: ok, Elapsed: elapsed})
	}
	tr.TupleOut = func(node Location, t Tuple) {
		emit(EventTupleOut, node, Event{Tuple: t})
	}
	tr.ReactionFired = func(node Location, id uint16, t Tuple) {
		emit(EventReactionFired, node, Event{AgentID: id, Tuple: t})
	}
	tr.NodeDied = func(node Location, cause DownCause) {
		emit(EventNodeDied, node, Event{Cause: cause})
		nw.closeWatchesAt(node)
	}
	tr.NodeRecovered = func(node Location) {
		emit(EventNodeRecovered, node, Event{})
	}
	tr.NodeMoved = func(from, to Location) {
		emit(EventNodeMoved, to, Event{Peer: from})
		nw.rehomeWatches(from, to)
	}
	tr.EnergyExhausted = func(node Location, usedJ float64) {
		emit(EventEnergyExhausted, node, Event{UsedJ: usedJ})
	}
	tr.ReplicaSynced = func(node, peer Location, added, removed int) {
		emit(EventReplicaSynced, node, Event{Peer: peer, Added: added, Removed: removed})
	}
	tr.TupleRecovered = func(node Location, t Tuple) {
		emit(EventTupleRecovered, node, Event{Tuple: t})
	}
}

// closeWatchesAt terminates every watch on a node that just died: the
// volatile space the watch observed is gone, so the channel closes (after
// draining queued matches) instead of dangling open until Network.Close.
func (nw *Network) closeWatchesAt(node Location) {
	nw.ev.mu.Lock()
	defer nw.ev.mu.Unlock()
	kept := nw.ev.watches[:0]
	for _, w := range nw.ev.watches {
		if w.loc == node {
			w.closeWatch()
		} else {
			kept = append(kept, w)
		}
	}
	nw.ev.watches = kept
}

// rehomeWatches follows a relocating mote: its space (tuples, observers)
// moves with it, so watches keep delivering and must die with the node's
// new address, not its old one.
func (nw *Network) rehomeWatches(from, to Location) {
	nw.ev.mu.Lock()
	defer nw.ev.mu.Unlock()
	for _, w := range nw.ev.watches {
		if w.loc == from {
			w.loc = to
		}
	}
}

// registerWatch atomically installs a watch on the node at loc: on an
// open network it runs install (which registers the insert observer and
// returns its remove func) and wires teardown into both Close and the
// node-death tap; on a closed network it only closes the stream, without
// installing anything. Holding the lock across install closes the race
// where a concurrent Close would miss a just-registered observer.
func (nw *Network) registerWatch(loc Location, install func() (remove func()), st *stream[Tuple]) {
	nw.ev.mu.Lock()
	defer nw.ev.mu.Unlock()
	if nw.ev.closed {
		st.close()
		return
	}
	// The death tap must be live for the watch-closing contract even if
	// the host never subscribed via Events.
	nw.installTaps()
	w := &watchReg{loc: loc, remove: install(), st: st}
	nw.ev.watches = append(nw.ev.watches, w)
	nw.ev.closers = append(nw.ev.closers, w.closeWatch)
}
