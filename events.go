package agilla

// Typed middleware events. The deployment-wide Trace of the old API
// exposed bare callbacks whose parameters were internal types external
// callers could not even name; this file replaces it with public Event
// variants and enums, delivered through channel subscriptions created by
// Network.Events. Internally the events are adapted from the same core
// trace hooks the experiment harness uses.

import (
	"fmt"
	"sync"
	"time"

	"github.com/agilla-go/agilla/internal/vm"
	"github.com/agilla-go/agilla/internal/wire"
)

// MigKind identifies how an agent materialized on, or left, a node: the
// four migration instructions of §2.2 plus base-station injection.
type MigKind uint8

// Migration kinds.
const (
	MigStrongMove  = MigKind(wire.MigStrongMove)
	MigWeakMove    = MigKind(wire.MigWeakMove)
	MigStrongClone = MigKind(wire.MigStrongClone)
	MigWeakClone   = MigKind(wire.MigWeakClone)
	MigInject      = MigKind(wire.MigInject)
)

// String returns the assembly mnemonic ("smove", "wclone", "inject").
func (k MigKind) String() string { return wire.MigKind(k).String() }

// Strong reports whether full state travels with the agent.
func (k MigKind) Strong() bool { return wire.MigKind(k).Strong() }

// Clone reports whether the original keeps running.
func (k MigKind) Clone() bool { return k == MigStrongClone || k == MigWeakClone }

// RemoteKind identifies a remote tuple space operation (§2.2: only
// probing operations are provided remotely, so an agent cannot block
// forever on message loss).
type RemoteKind uint8

// Remote operation kinds.
const (
	RemoteOut = RemoteKind(vm.RemoteOut)
	RemoteInp = RemoteKind(vm.RemoteInp)
	RemoteRdp = RemoteKind(vm.RemoteRdp)
)

// String returns the instruction mnemonic ("rout", "rinp", "rrdp").
func (k RemoteKind) String() string { return vm.RemoteKind(k).String() }

// EventKind discriminates Event variants; use it with OfKind to subscribe
// to a subset of the stream.
type EventKind uint8

// Event kinds, one per variant.
const (
	EventAgentArrived EventKind = iota + 1
	EventAgentHalted
	EventAgentDied
	EventMigrationStarted
	EventMigrationDone
	EventRemoteDone
	EventTupleOut
	EventReactionFired
	EventNodeDied
	EventNodeRecovered
	EventNodeMoved
	EventEnergyExhausted
	EventReplicaSynced
	EventTupleRecovered
)

func (k EventKind) String() string {
	switch k {
	case EventAgentArrived:
		return "agent-arrived"
	case EventAgentHalted:
		return "agent-halted"
	case EventAgentDied:
		return "agent-died"
	case EventMigrationStarted:
		return "migration-started"
	case EventMigrationDone:
		return "migration-done"
	case EventRemoteDone:
		return "remote-done"
	case EventTupleOut:
		return "tuple-out"
	case EventReactionFired:
		return "reaction-fired"
	case EventNodeDied:
		return "node-died"
	case EventNodeRecovered:
		return "node-recovered"
	case EventNodeMoved:
		return "node-moved"
	case EventEnergyExhausted:
		return "energy-exhausted"
	case EventReplicaSynced:
		return "replica-synced"
	case EventTupleRecovered:
		return "tuple-recovered"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one middleware occurrence somewhere in the network. The
// concrete variants are AgentArrived, AgentHalted, AgentDied,
// MigrationStarted, MigrationDone, RemoteDone, TupleOut, ReactionFired,
// NodeDied, NodeRecovered, NodeMoved, EnergyExhausted, ReplicaSynced, and
// TupleRecovered; type-switch to access variant fields:
//
//	for e := range nw.Events(agilla.OfKind(agilla.EventAgentDied)) {
//		d := e.(agilla.AgentDied)
//		fmt.Println(d.AgentID, d.Err)
//	}
//
// The interface is sealed: only this package defines variants.
type Event interface {
	// Kind discriminates the variant.
	Kind() EventKind
	// When is the virtual time the event occurred.
	When() time.Duration
	// Where is the node the event occurred on.
	Where() Location
	// String renders the event readably for logs.
	String() string

	// agentID reports the agent the event concerns, if any; it also seals
	// the interface.
	agentID() (uint16, bool)
}

// AgentArrived reports an agent materializing on a node: a completed
// injection, a completed move hop, or a clone instantiation.
type AgentArrived struct {
	At      time.Duration
	Node    Location
	AgentID uint16
	// Mig is how the agent got here (inject, smove, wmove, sclone,
	// wclone).
	Mig MigKind
	// From is the node the agent came from.
	From Location
}

func (e AgentArrived) Kind() EventKind         { return EventAgentArrived }
func (e AgentArrived) When() time.Duration     { return e.At }
func (e AgentArrived) Where() Location         { return e.Node }
func (e AgentArrived) agentID() (uint16, bool) { return e.AgentID, true }
func (e AgentArrived) String() string {
	return fmt.Sprintf("agent %d arrived at %v from %v (%v)", e.AgentID, e.Node, e.From, e.Mig)
}

// AgentHalted reports an agent voluntarily executing halt.
type AgentHalted struct {
	At      time.Duration
	Node    Location
	AgentID uint16
}

func (e AgentHalted) Kind() EventKind         { return EventAgentHalted }
func (e AgentHalted) When() time.Duration     { return e.At }
func (e AgentHalted) Where() Location         { return e.Node }
func (e AgentHalted) agentID() (uint16, bool) { return e.AgentID, true }
func (e AgentHalted) String() string {
	return fmt.Sprintf("agent %d halted at %v", e.AgentID, e.Node)
}

// AgentDied reports an agent dying with an error.
type AgentDied struct {
	At      time.Duration
	Node    Location
	AgentID uint16
	Err     error
}

func (e AgentDied) Kind() EventKind         { return EventAgentDied }
func (e AgentDied) When() time.Duration     { return e.At }
func (e AgentDied) Where() Location         { return e.Node }
func (e AgentDied) agentID() (uint16, bool) { return e.AgentID, true }
func (e AgentDied) String() string {
	return fmt.Sprintf("agent %d died at %v: %v", e.AgentID, e.Node, e.Err)
}

// MigrationStarted reports a hop transfer beginning on the sending node
// (once per hop of a multi-hop move).
type MigrationStarted struct {
	At      time.Duration
	Node    Location
	AgentID uint16
	Mig     MigKind
	Dest    Location
}

func (e MigrationStarted) Kind() EventKind         { return EventMigrationStarted }
func (e MigrationStarted) When() time.Duration     { return e.At }
func (e MigrationStarted) Where() Location         { return e.Node }
func (e MigrationStarted) agentID() (uint16, bool) { return e.AgentID, true }
func (e MigrationStarted) String() string {
	return fmt.Sprintf("agent %d %v %v -> %v", e.AgentID, e.Mig, e.Node, e.Dest)
}

// MigrationDone reports the sender-side conclusion of a hop transfer.
type MigrationDone struct {
	At      time.Duration
	Node    Location
	AgentID uint16
	Mig     MigKind
	Dest    Location
	// OK reports whether the receiver acknowledged the handoff; a failed
	// hop resumes the agent on the sender with condition zero.
	OK bool
}

func (e MigrationDone) Kind() EventKind         { return EventMigrationDone }
func (e MigrationDone) When() time.Duration     { return e.At }
func (e MigrationDone) Where() Location         { return e.Node }
func (e MigrationDone) agentID() (uint16, bool) { return e.AgentID, true }
func (e MigrationDone) String() string {
	verdict := "ok"
	if !e.OK {
		verdict = "failed"
	}
	return fmt.Sprintf("agent %d %v %v -> %v %s", e.AgentID, e.Mig, e.Node, e.Dest, verdict)
}

// RemoteDone reports an agent-initiated remote tuple space operation
// resolving on its initiator: a reply arrived, or the retransmission
// budget ran out.
type RemoteDone struct {
	At      time.Duration
	Node    Location
	AgentID uint16
	Op      RemoteKind
	Dest    Location
	// OK reports operation success; a timed-out or no-match operation
	// clears the agent's condition code instead.
	OK bool
	// Elapsed is initiation to resolution in virtual time.
	Elapsed time.Duration
}

func (e RemoteDone) Kind() EventKind         { return EventRemoteDone }
func (e RemoteDone) When() time.Duration     { return e.At }
func (e RemoteDone) Where() Location         { return e.Node }
func (e RemoteDone) agentID() (uint16, bool) { return e.AgentID, true }
func (e RemoteDone) String() string {
	verdict := "ok"
	if !e.OK {
		verdict = "failed"
	}
	return fmt.Sprintf("agent %d %v %v -> %v %s in %v", e.AgentID, e.Op, e.Node, e.Dest, verdict, e.Elapsed)
}

// TupleOut reports a successful tuple insertion into a node's local
// space, whatever inserted it (an agent's out, a remote rout, a context
// tuple, or the host API).
type TupleOut struct {
	At    time.Duration
	Node  Location
	Tuple Tuple
}

func (e TupleOut) Kind() EventKind         { return EventTupleOut }
func (e TupleOut) When() time.Duration     { return e.At }
func (e TupleOut) Where() Location         { return e.Node }
func (e TupleOut) agentID() (uint16, bool) { return 0, false }
func (e TupleOut) String() string {
	return fmt.Sprintf("tuple %v out at %v", e.Tuple, e.Node)
}

// ReactionFired reports a tuple insertion triggering a reaction
// registered by an agent (§3.2 Tuple Space Manager).
type ReactionFired struct {
	At   time.Duration
	Node Location
	// AgentID owns the reaction that fired.
	AgentID uint16
	// Tuple is the inserted tuple that matched the reaction's template.
	Tuple Tuple
}

func (e ReactionFired) Kind() EventKind         { return EventReactionFired }
func (e ReactionFired) When() time.Duration     { return e.At }
func (e ReactionFired) Where() Location         { return e.Node }
func (e ReactionFired) agentID() (uint16, bool) { return e.AgentID, true }
func (e ReactionFired) String() string {
	return fmt.Sprintf("reaction of agent %d fired at %v on %v", e.AgentID, e.Node, e.Tuple)
}

// NodeDied reports a mote going down: a scripted fault, the host API, or
// battery exhaustion (Cause distinguishes). Hosted agents report their
// own AgentDied events, carrying ErrNodeDown, first.
type NodeDied struct {
	At    time.Duration
	Node  Location
	Cause DownCause
}

func (e NodeDied) Kind() EventKind         { return EventNodeDied }
func (e NodeDied) When() time.Duration     { return e.At }
func (e NodeDied) Where() Location         { return e.Node }
func (e NodeDied) agentID() (uint16, bool) { return 0, false }
func (e NodeDied) String() string {
	return fmt.Sprintf("node %v died (%v)", e.Node, e.Cause)
}

// NodeRecovered reports a dead mote finishing its reboot: back on the
// air with empty spaces, re-seeded context tuples, and a fresh battery.
type NodeRecovered struct {
	At   time.Duration
	Node Location
}

func (e NodeRecovered) Kind() EventKind         { return EventNodeRecovered }
func (e NodeRecovered) When() time.Duration     { return e.At }
func (e NodeRecovered) Where() Location         { return e.Node }
func (e NodeRecovered) agentID() (uint16, bool) { return 0, false }
func (e NodeRecovered) String() string {
	return fmt.Sprintf("node %v recovered", e.Node)
}

// NodeMoved reports a mote relocating from From to Node (its new
// address), agents and tuples aboard.
type NodeMoved struct {
	At   time.Duration
	Node Location // the new location
	From Location // the vacated location
}

func (e NodeMoved) Kind() EventKind         { return EventNodeMoved }
func (e NodeMoved) When() time.Duration     { return e.At }
func (e NodeMoved) Where() Location         { return e.Node }
func (e NodeMoved) agentID() (uint16, bool) { return 0, false }
func (e NodeMoved) String() string {
	return fmt.Sprintf("node moved %v -> %v", e.From, e.Node)
}

// EnergyExhausted reports a battery emptying; the NodeDied it causes
// follows immediately.
type EnergyExhausted struct {
	At   time.Duration
	Node Location
	// UsedJ is the emptied battery's drain in joules (the cells
	// installed at death; a revived mote's earlier batteries are not
	// included).
	UsedJ float64
}

func (e EnergyExhausted) Kind() EventKind         { return EventEnergyExhausted }
func (e EnergyExhausted) When() time.Duration     { return e.At }
func (e EnergyExhausted) Where() Location         { return e.Node }
func (e EnergyExhausted) agentID() (uint16, bool) { return 0, false }
func (e EnergyExhausted) String() string {
	return fmt.Sprintf("node %v exhausted its battery (%.3g J)", e.Node, e.UsedJ)
}

// ReplicaSynced reports a gossip delta changing a node's replica store
// under WithReplication: Added entries were accepted, Removed tombstones
// evicted live replicas. Quiet gossip rounds (digest exchanges that find
// nothing to ship) publish no event.
type ReplicaSynced struct {
	At   time.Duration
	Node Location
	// Peer is the node whose delta changed this store.
	Peer    Location
	Added   int
	Removed int
}

func (e ReplicaSynced) Kind() EventKind         { return EventReplicaSynced }
func (e ReplicaSynced) When() time.Duration     { return e.At }
func (e ReplicaSynced) Where() Location         { return e.Node }
func (e ReplicaSynced) agentID() (uint16, bool) { return 0, false }
func (e ReplicaSynced) String() string {
	return fmt.Sprintf("node %v synced replica from %v (+%d -%d)", e.Node, e.Peer, e.Added, e.Removed)
}

// TupleRecovered reports a revived node re-inserting a tuple it had
// originated before crashing, streamed back out of a neighbor's replica
// store by anti-entropy gossip (WithReplication).
type TupleRecovered struct {
	At    time.Duration
	Node  Location
	Tuple Tuple
}

func (e TupleRecovered) Kind() EventKind         { return EventTupleRecovered }
func (e TupleRecovered) When() time.Duration     { return e.At }
func (e TupleRecovered) Where() Location         { return e.Node }
func (e TupleRecovered) agentID() (uint16, bool) { return 0, false }
func (e TupleRecovered) String() string {
	return fmt.Sprintf("node %v recovered tuple %v", e.Node, e.Tuple)
}

// EventFilter selects a subset of the event stream; a subscription keeps
// an event only if every filter passes. Combine the provided constructors
// or write any predicate over the Event interface.
type EventFilter func(Event) bool

// OfKind keeps events of the given kinds.
func OfKind(kinds ...EventKind) EventFilter {
	set := make(map[EventKind]bool, len(kinds))
	for _, k := range kinds {
		set[k] = true
	}
	return func(e Event) bool { return set[e.Kind()] }
}

// OnNode keeps events occurring on the given nodes.
func OnNode(locs ...Location) EventFilter {
	set := make(map[Location]bool, len(locs))
	for _, l := range locs {
		set[l] = true
	}
	return func(e Event) bool { return set[e.Where()] }
}

// OfAgent keeps events concerning the given agents. Events with no agent
// (TupleOut) never pass.
func OfAgent(ids ...uint16) EventFilter {
	set := make(map[uint16]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return func(e Event) bool {
		id, ok := e.agentID()
		return ok && set[id]
	}
}

// stream decouples the single-threaded simulation from channel consumers:
// the simulation pushes into an unbounded queue without ever blocking,
// and a pump goroutine forwards the queue to the subscriber's channel in
// order. After close, queued items remain deliverable; the channel closes
// once they are drained.
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
		if len(s.queue) == 0 {
			s.mu.Unlock()
			close(s.out)
			return
		}
		v := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		s.out <- v
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
// ordered). Consumers needing a cross-node order should sort by When,
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

// installTaps adapts the deployment's internal trace hooks into typed
// events, once. The Network owns its deployment's trace; nothing else
// writes these hooks.
func (nw *Network) installTaps() {
	if nw.ev.installed {
		return
	}
	nw.ev.installed = true
	tr := nw.d.Trace
	// Stamp events with the reporting node's clock: under a parallel
	// executor it is exact mid-run where the executor-wide clock is only
	// barrier-accurate.
	now := func(node Location) time.Duration { return nw.d.NowAt(node) }
	tr.AgentArrived = func(node Location, id uint16, kind wire.MigKind, from Location) {
		nw.publish(AgentArrived{At: now(node), Node: node, AgentID: id, Mig: MigKind(kind), From: from})
	}
	tr.AgentHalted = func(node Location, id uint16) {
		nw.publish(AgentHalted{At: now(node), Node: node, AgentID: id})
	}
	tr.AgentDied = func(node Location, id uint16, err error) {
		nw.publish(AgentDied{At: now(node), Node: node, AgentID: id, Err: err})
	}
	tr.MigrationStarted = func(node Location, id uint16, kind wire.MigKind, dest Location) {
		nw.publish(MigrationStarted{At: now(node), Node: node, AgentID: id, Mig: MigKind(kind), Dest: dest})
	}
	tr.MigrationDone = func(node Location, id uint16, kind wire.MigKind, dest Location, ok bool) {
		nw.publish(MigrationDone{At: now(node), Node: node, AgentID: id, Mig: MigKind(kind), Dest: dest, OK: ok})
	}
	tr.RemoteDone = func(node Location, id uint16, kind vm.RemoteKind, dest Location, ok bool, elapsed time.Duration) {
		nw.publish(RemoteDone{At: now(node), Node: node, AgentID: id, Op: RemoteKind(kind), Dest: dest, OK: ok, Elapsed: elapsed})
	}
	tr.TupleOut = func(node Location, t Tuple) {
		nw.publish(TupleOut{At: now(node), Node: node, Tuple: t})
	}
	tr.ReactionFired = func(node Location, id uint16, t Tuple) {
		nw.publish(ReactionFired{At: now(node), Node: node, AgentID: id, Tuple: t})
	}
	tr.NodeDied = func(node Location, cause DownCause) {
		nw.publish(NodeDied{At: now(node), Node: node, Cause: cause})
		nw.closeWatchesAt(node)
	}
	tr.NodeRecovered = func(node Location) {
		nw.publish(NodeRecovered{At: now(node), Node: node})
	}
	tr.NodeMoved = func(from, to Location) {
		nw.publish(NodeMoved{At: now(to), Node: to, From: from})
		nw.rehomeWatches(from, to)
	}
	tr.EnergyExhausted = func(node Location, usedJ float64) {
		nw.publish(EnergyExhausted{At: now(node), Node: node, UsedJ: usedJ})
	}
	tr.ReplicaSynced = func(node, peer Location, added, removed int) {
		nw.publish(ReplicaSynced{At: now(node), Node: node, Peer: peer, Added: added, Removed: removed})
	}
	tr.TupleRecovered = func(node Location, t Tuple) {
		nw.publish(TupleRecovered{At: now(node), Node: node, Tuple: t})
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
