package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/agilla-go/agilla/internal/network"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sensor"
	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
	"github.com/agilla-go/agilla/internal/wire"
)

// ErrAgentLimit is returned when a node cannot host another agent.
var ErrAgentLimit = errors.New("core: agent limit reached")

// ErrKilled is the cause of death of an agent the host killed
// (Node.KillAgent).
var ErrKilled = errors.New("core: agent killed")

// AgentState tracks where an agent is in its life cycle on this node.
type AgentState uint8

// Agent states.
const (
	AgentReady     AgentState = iota + 1 // runnable, in the engine's queue
	AgentSleeping                        // executed sleep
	AgentWaiting                         // executed wait; resumes on a reaction
	AgentBlocked                         // blocking in/rd with no match
	AgentMigrating                       // suspended while a transfer is in flight
	AgentRemote                          // awaiting a remote tuple space reply
	AgentDead                            // reclaimed
)

func (s AgentState) String() string {
	switch s {
	case AgentReady:
		return "ready"
	case AgentSleeping:
		return "sleeping"
	case AgentWaiting:
		return "waiting"
	case AgentBlocked:
		return "blocked"
	case AgentMigrating:
		return "migrating"
	case AgentRemote:
		return "remote"
	case AgentDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// firing is one queued reaction delivery: jump target plus the tuple that
// matched, delivered at the agent's next instruction boundary. The tuple
// is kept encoded in the queue slot: the inserted tuple may be scratch
// that the next instruction overwrites, and a slot owns its bytes.
type firing struct {
	pc    uint16
	tuple [tuplespace.MaxTupleBytes]byte
}

// record is the agent manager's per-agent bookkeeping (§3.2: "The agent
// manager maintains each agent's context"). Records and their agents come
// from the shard's free lists and go back to them once the agent has left
// its mote and nothing can reach the record (see free).
type record struct {
	agent *vm.Agent
	host  *Node // the mote hosting the agent, which the wake timer resumes it on
	// prog is the compiled form of the agent's code, nil when the program
	// does not verify or the node runs without the compiled backend.
	prog *vm.Compiled

	// blockTmpl and blockRemove describe an unsatisfied blocking in/rd.
	// The template is a copy in storage the record keeps when recycled.
	blockTmpl tuplespace.Template

	// pending[pendHead:] are the queued reaction firings. Consuming
	// advances pendHead instead of reslicing so the backing array is
	// reused (and delivered firings are zeroed, not retained).
	pending  []firing
	pendHead int

	sliceUsed   int32
	state       AgentState
	blockRemove bool
	queued      bool      // in the run ring
	wake        sim.Timer // sleep timer, bound to onWake at the record's first sleep
}

func (rec *record) clock() *sim.Timer { return &rec.wake }

// pendingCount returns the number of undelivered reaction firings.
func (rec *record) pendingCount() int { return len(rec.pending) - rec.pendHead }

// popFiring removes and returns the oldest pending firing.
func (rec *record) popFiring() firing {
	f := rec.pending[rec.pendHead]
	rec.pending[rec.pendHead] = firing{}
	rec.pendHead++
	if rec.pendHead == len(rec.pending) {
		rec.pending = rec.pending[:0]
		rec.pendHead = 0
	}
	return f
}

// Node is one simulated mote running the Agilla middleware.
// Constructed by NewDeployment; not safe for concurrent use. Under a parallel
// executor the node is confined to its scheduling context's shard: its
// engine, tuple space, registry, and protocol state are only ever touched
// by events running there.
//
// A mote is one object on the host: the network stack, tuple space,
// reaction registry, instruction manager and run queue are held by value,
// so a wake-up finds them beside the fields that led to them. What every
// mote of a shard can share (the configuration, the hook table, the
// engine's scratch) is pointed at, and what a mote has not used yet — its
// protocol sessions, its agents' records — is not allocated.
type Node struct {
	*shardEnv // cfg, trace, stepOut
	sim       *sim.Ctx
	loc       topology.Location

	life LifeState // up / down / recovering (see world.go)
	busy bool      // an engine step is scheduled

	nodeIndex  uint8 // high byte of locally assigned agent IDs
	agentCount uint8 // low byte counter
	migSeq     uint16
	reqSeq     uint16
	led        int16
	reserve    uint16 // agent slots held by inbound migrations: below cfg.MaxAgents, which withDefaults caps at 65535

	bat   *battery      // nil when the deployment has no energy model
	repl  *replicaState // nil without replication (see replica.go)
	board *sensor.Board

	net      network.Stack
	space    tuplespace.Space
	registry tuplespace.Registry
	instr    InstrMem

	// agents holds the hosted agents' records in ascending ID order: the
	// paper bounds it to MaxAgents (4), so a search is a few comparisons
	// and iterating is already deterministic.
	agents []*record
	runq   runRing
	stepFn func() // engineStep as a value: one instruction per event makes a fresh method closure per step measurable

	ses *sessions // nil until the mote's first protocol session

	stats NodeStats
}

// sessions is a mote's protocol state between frames. The paper's agent
// manager hosts four agents (§3.2), which bounds the open sessions to a
// handful, so each list is a short ordered slice searched in place. A mote
// makes its record at its first session and loses it with its RAM.
type sessions struct {
	out    []*outMigration  // outbound transfers, in the order their agents departed
	in     []*inMigration   // inbound transfers, in inKey order
	remote []*pendingRemote // in-flight remote operations, in request order

	done   recent[inKey, struct{}]        // finalized inbound transfers, to re-ack stragglers for 3 s
	served recent[servedKey, servedReply] // the responder's reply cache (serveRemoteRequest)
	// servedTuples holds the encoded tuple of served[i]'s reply at
	// i*MaxTupleBytes; it grows only once a reply carries a tuple.
	servedTuples []byte
}

// session returns the mote's session record, making it at first use.
// Lookups read n.ses as it is: their nil receiver holds no sessions.
func (n *Node) session() *sessions {
	if n.ses == nil {
		n.ses = new(sessions)
	}
	return n.ses
}

// outbound returns the begun outbound transfer key names, or nil.
func (s *sessions) outbound(key migKey) *outMigration {
	if s != nil {
		for _, om := range s.out {
			if om.started && om.key == key {
				return om
			}
		}
	}
	return nil
}

// inbound returns the index of the inbound transfer key names in s.in, or
// the index it would take.
func (s *sessions) inbound(key inKey) (int, bool) {
	if s == nil {
		return 0, false
	}
	return slices.BinarySearchFunc(s.in, key, func(im *inMigration, k inKey) int { return im.key.compare(k) })
}

// request returns the in-flight remote operation reqID names, or nil.
func (s *sessions) request(reqID uint16) *pendingRemote {
	if s != nil {
		for _, pr := range s.remote {
			if pr.req.ReqID == reqID {
				return pr
			}
		}
	}
	return nil
}

// finalized reports whether the inbound transfer key names was finalized
// recently.
func (s *sessions) finalized(key inKey) bool { return s != nil && s.done.find(key) >= 0 }

// remove deletes v from the session list l, keeping the others in order.
func remove[T comparable](l *[]T, v T) {
	if i := slices.Index(*l, v); i >= 0 {
		*l = slices.Delete(*l, i, i+1)
	}
}

// recent remembers concluded exchanges for a grace period, so that a
// retransmitted straggler is answered instead of run again. Expiry happens
// in note only, which clears every entry stamped more than grace before
// now, so an entry outlives its grace until the next note; a cleared slot
// (at < 0) takes the next key noted. The list thus grows only to the most
// entries live at once, and nothing in it ever shifts.
type recent[K comparable, V any] []stamped[K, V]

type stamped[K comparable, V any] struct {
	key K
	val V
	at  time.Duration // < 0: a free slot
}

// find returns the index of key's entry, or -1.
func (r recent[K, V]) find(key K) int {
	for i := range r {
		if r[i].at >= 0 && r[i].key == key {
			return i
		}
	}
	return -1
}

// note stamps key with val at now, in the slot key already has or else in
// the first free one, clears the entries stamped more than grace before
// now, and returns key's slot.
func (r *recent[K, V]) note(key K, val V, now, grace time.Duration) int {
	l := *r
	slot, free := -1, -1
	for i := range l {
		e := &l[i]
		switch {
		case e.at >= 0 && e.key == key:
			slot = i
		case e.at >= 0 && now-e.at <= grace:
		default:
			*e = stamped[K, V]{at: -1}
			if free < 0 {
				free = i
			}
		}
	}
	if slot < 0 {
		slot = free
	}
	if slot < 0 {
		slot = len(l)
		*r = append(l, stamped[K, V]{})
	}
	(*r)[slot] = stamped[K, V]{key: key, val: val, at: now}
	return slot
}

// shardEnv is what the nodes of one deployment that run on one executor
// shard share instead of each owning a copy. Events of one shard never
// overlap and engine steps never nest, so one scratch outcome serves them
// all; shards run concurrently, so each gets its own. The free lists of
// migration state live here too, so a mote that has never moved an agent
// pays nothing for them.
type shardEnv struct {
	cfg     Config     // defaults applied; never written after construction
	trace   *Trace     // the deployment's hook table; never nil
	stepOut vm.Outcome // engineStep's scratch outcome
	// scratch is what the tuple instructions of the shard's agents work
	// in (Node.Scratch), and rxFields what a remote request or reply
	// decodes its fields into. Both are overwritten by the next use.
	scratch  vm.Scratch
	rxFields [tuplespace.MaxTupleBytes]tuplespace.Value

	// Released transfer and remote-operation records, and the records and
	// agents of agents that left their motes (see migration.go, remote.go
	// and free).
	outFree   []*outMigration
	inFree    []*inMigration
	remFree   []*pendingRemote
	recFree   []*record
	agentFree []*vm.Agent
	agt       map[uint16]tuplespace.Tuple // presence tuples by agent ID
	rxnBuf    []tuplespace.Reaction       // encodeAgent's scratch

	// deltaFields is recvReplicaDelta's decode scratch for the fields of
	// a delta's tuples (on the stack it would escape through the entries).
	deltaFields [replicaDeltaCap * tuplespace.MaxTupleBytes]tuplespace.Value

	// tx is the scratch every frame the shard's motes send is encoded
	// into: acks, envelopes, remote requests and replies, digests and
	// deltas. net holds the network stacks' configuration, the medium and
	// their own scratch, kept apart so that an envelope is never encoded
	// into the buffer holding its body. The medium copies a payload before
	// a send returns, so each is free again once the send call is.
	tx  []byte
	net network.Shard
}

// poisonValue is what the shard's tuple scratch reads as between uses in
// builds that set poisonScratch: a kind no instruction or codec produces.
var poisonValue = tuplespace.Value{Kind: 0xA5, A: -0x5A5B, B: -0x5A5B}

// poison overwrites vs with poisonValue.
func poison(vs []tuplespace.Value) {
	for i := range vs {
		vs[i] = poisonValue
	}
}

// newNode builds a mote at loc, attaches it to the medium, and seeds its
// tuple space with the pre-defined context tuples (§2.2). The board may be
// nil for a sensorless node; env is the one of the shard s runs on. The
// context must be the one keyed to loc (sim.Key2D), the same context the
// medium registers on Attach, so the node's timers and the radio's
// deliveries share one ordering identity.
func newNode(s *sim.Ctx, loc topology.Location, nodeIndex uint8, board *sensor.Board, env *shardEnv) (*Node, error) {
	n := &Node{
		shardEnv:  env,
		sim:       s,
		loc:       loc,
		board:     board,
		nodeIndex: nodeIndex,
	}
	n.resetRAM()
	n.stepFn = n.engineStep
	if err := env.net.Medium.Attach(loc, n); err != nil {
		return nil, err
	}
	n.net.Init(s, loc, &env.net)
	n.net.NumAgents = func() int { return len(n.agents) }
	n.net.DeliverDirect = n.handleDirect
	n.net.DeliverRouted = n.handleRouted
	n.seedContextTuples()
	return n, nil
}

// resetRAM makes the tuple space, reaction registry and instruction memory
// empty at their configured budgets — a mote's RAM at power-on — and
// re-hooks the space. Without replication the remove hook stays nil, so
// removals copy out no tuple.
func (n *Node) resetRAM() {
	n.space.Init(n.cfg.ArenaBytes)
	var onRemove func(tuplespace.Tuple)
	if n.repl != nil {
		onRemove = n.replicaOnRemove
	}
	n.space.SetHooks(n.onTupleInserted, onRemove)
	n.registry.Init(n.cfg.RegistryBytes, n.cfg.RegistryMax)
	n.instr.Init(n.cfg.CodeBlocks)
}

// Start begins beaconing (and, with an energy model, the idle-drain
// check; with replication, the gossip tick). Call after all nodes are
// constructed.
func (n *Node) Start() {
	n.net.Start()
	n.startBatteryTick()
	n.startGossip()
}

// Stop silences the node: the mote dies exactly as a scripted kill would
// (radio deaf, beacons stopped, hosted agents die with it, volatile state
// lost). It is safe at any time under either executor — deaths are
// node-local. Revive with Recover, or schedule both with the
// deployment's KillAt/ReviveAt.
func (n *Node) Stop() { n.Crash(CauseKilled) }

// Loc returns the node's location (which is its address, §2.2).
func (n *Node) Loc() topology.Location { return n.loc }

// Now returns the node's current virtual time: its shard's clock, exact
// inside the node's own events as well as between runs.
func (n *Node) Now() time.Duration { return n.sim.Now() }

// Config returns the node's effective configuration (defaults applied).
func (n *Node) Config() Config { return n.cfg }

// Space returns the local tuple space (for inspection and tests).
func (n *Node) Space() *tuplespace.Space { return &n.space }

// Registry returns the reaction registry.
func (n *Node) Registry() *tuplespace.Registry { return &n.registry }

// InstrMem returns the instruction manager.
func (n *Node) InstrMem() *InstrMem { return &n.instr }

// Net returns the network stack.
func (n *Node) Net() *network.Stack { return &n.net }

// Stats returns a snapshot of the node counters.
func (n *Node) Stats() NodeStats { return n.stats }

// LED returns the last putled value.
func (n *Node) LED() int16 { return n.led }

// NumAgents returns the live agent count.
func (n *Node) NumAgents() int { return len(n.agents) }

// AgentIDs returns the live agent IDs in ascending order.
func (n *Node) AgentIDs() []uint16 {
	out := make([]uint16, len(n.agents))
	for i, rec := range n.agents {
		out[i] = rec.agent.ID
	}
	return out
}

// agentIndex returns the position of agent id in n.agents, or where it
// would be inserted.
func (n *Node) agentIndex(id uint16) (int, bool) {
	i := 0
	for i < len(n.agents) && n.agents[i].agent.ID < id {
		i++
	}
	return i, i < len(n.agents) && n.agents[i].agent.ID == id
}

// hosted returns the record of agent id, or nil.
func (n *Node) hosted(id uint16) *record {
	if i, ok := n.agentIndex(id); ok {
		return n.agents[i]
	}
	return nil
}

// AgentInfo reports an agent's state, or false if unknown.
func (n *Node) AgentInfo(id uint16) (AgentState, bool) {
	rec := n.hosted(id)
	if rec == nil {
		return 0, false
	}
	return rec.state, true
}

// Agent returns the VM state of a hosted agent (tests and the CLI inspect
// through this). The pointer is the agent's only while it is hosted here:
// once the agent leaves — it moves on, halts, dies, is killed or its mote
// crashes — the state is recycled for the next agent the shard admits, and
// an agent created before the deployment first starts moves into its
// shard's slab at that Start (Deployment.rehomeAgents), so ask again after
// either.
func (n *Node) Agent(id uint16) (*vm.Agent, bool) {
	rec := n.hosted(id)
	if rec == nil {
		return nil, false
	}
	return rec.agent, true
}

// KillAgent forcibly reclaims a hosted agent (the user retires an old
// application, §2.2: "old agents can die"). The agent dies with
// ErrKilled; a transfer or remote operation it was suspended on is
// abandoned, so no late ack or reply reaches it. It reports whether the
// agent was present.
func (n *Node) KillAgent(id uint16) bool {
	rec := n.hosted(id)
	if rec == nil {
		return false
	}
	n.detach(rec)
	n.killAgent(rec, ErrKilled)
	return true
}

// detach abandons the outbound transfer or remote operation rec is
// suspended on, the only protocol state that points at an agent's record.
func (n *Node) detach(rec *record) {
	s := n.ses
	if s == nil {
		return
	}
	for _, om := range s.out {
		if om.rec == rec {
			remove(&s.out, om)
			n.releaseOut(om)
			return
		}
	}
	for _, pr := range s.remote {
		if pr.rec == rec {
			remove(&s.remote, pr)
			n.releaseRemote(pr)
			return
		}
	}
}

// NextAgentID hands out a network-unique agent ID: the node index in the
// high byte and a local counter in the low byte.
func (n *Node) NextAgentID() uint16 {
	n.agentCount++
	return uint16(n.nodeIndex)<<8 | uint16(n.agentCount)
}

// seedContextTuples inserts the pre-defined context tuples: the node's
// location and one sensor tuple per available sensor (§2.2). Context
// tuples are per-node state, not application data, so they are never
// replicated.
func (n *Node) seedContextTuples() {
	n.replicaMuted(func() {
		// Location tuple: <"loc", (x,y)>.
		_ = n.space.Out(tuplespace.T(tuplespace.Str("loc"), tuplespace.LocV(n.loc)))
		if n.board != nil {
			for _, t := range n.board.ContextTuples() {
				_ = n.space.Out(t)
			}
		}
	})
}

// CreateAgent hosts a fresh agent with the given code, as if injected
// locally. It charges instruction memory and an agent slot, inserts the
// arrival context tuple, and schedules the agent to run.
func (n *Node) CreateAgent(code []byte) (uint16, error) {
	rec, err := n.admitNew(code)
	if err != nil {
		return 0, err
	}
	id := rec.agent.ID
	rec.state = AgentReady
	n.enqueue(rec)
	n.noteArrival(id, wire.MigInject, n.loc)
	return id, nil
}

// admitNew installs a fresh agent with a copy of code under a new ID on an
// up mote, the start of every agent's life that does not arrive by
// migration.
func (n *Node) admitNew(code []byte) (*record, error) {
	if n.life != NodeUp {
		return nil, fmt.Errorf("%w: %v", ErrNodeDown, n.loc)
	}
	if len(n.agents)+int(n.reserve) >= n.cfg.MaxAgents { // admitRecord's check, before an ID is spent
		return nil, fmt.Errorf("%w: %d hosted", ErrAgentLimit, len(n.agents))
	}
	a := n.newAgent()
	a.ID, a.Code = n.NextAgentID(), append(a.Code, code...)
	return n.admitRecord(a)
}

// reclaim removes an agent and frees everything it held, its record too
// unless the run ring still holds it.
func (n *Node) reclaim(id uint16) {
	i, ok := n.agentIndex(id)
	if !ok {
		return
	}
	rec := n.agents[i]
	rec.state = AgentDead
	rec.wake.Stop()
	n.instr.Free(id)
	n.registry.RemoveAgent(id)
	n.replicaMuted(func() {
		n.space.Drop(tuplespace.Tmpl(tuplespace.Str("agt"), tuplespace.AgentIDV(id)))
	})
	copy(n.agents[i:], n.agents[i+1:])
	n.agents[len(n.agents)-1] = nil
	n.agents = n.agents[:len(n.agents)-1]
	n.free(rec)
}

func (n *Node) noteArrival(id uint16, kind wire.MigKind, from topology.Location) {
	if n.trace.AgentArrived != nil {
		n.trace.AgentArrived(n.loc, id, kind, from)
	}
}

// noteClone reports a clone instantiated here; its arrival follows.
func (n *Node) noteClone(parent, clone uint16) {
	if n.trace.AgentCloned != nil {
		n.trace.AgentCloned(n.loc, parent, clone)
	}
}

// onTupleInserted is the tuple space manager's insert hook: it wakes
// blocked agents and fires matching reactions (§3.2), then stamps the
// insertion for replication.
func (n *Node) onTupleInserted(t tuplespace.Tuple) {
	if n.trace.TupleOut != nil {
		n.trace.TupleOut(n.loc, t)
	}
	// Wake agents blocked on in/rd whose template matches; they re-run
	// the blocking instruction ("the agents in this queue are notified
	// and can re-check for a match", §3.4), in ID order.
	for _, rec := range n.agents {
		if rec.state == AgentBlocked && rec.blockTmpl.Matches(t) {
			rec.state = AgentReady
			n.enqueue(rec)
		}
	}
	// Fire reactions: queue the jump on each owning agent; waiting agents
	// resume immediately (§3.2 Tuple Space Manager).
	var matched [tuplespace.DefaultRegistryMax]tuplespace.Reaction
	for _, rxn := range n.registry.AppendMatching(matched[:0], t) {
		rec := n.hosted(rxn.AgentID)
		if rec == nil || rec.state == AgentDead {
			continue
		}
		rec.pending = append(rec.pending, firing{pc: rxn.PC})
		f := &rec.pending[len(rec.pending)-1]
		t.Marshal(f.tuple[:0]) // Out admitted t, so it fits
		n.stats.ReactionsFired++
		if n.trace.ReactionFired != nil {
			n.trace.ReactionFired(n.loc, rxn.AgentID, t)
		}
		if rec.state == AgentWaiting || rec.state == AgentBlocked {
			rec.state = AgentReady
			n.enqueue(rec)
		}
	}
	n.replicaOnInsert(t)
}

// ReceiveFrame implements radio.Receiver. A down or booting mote's radio
// is off: in-flight frames to it are lost at delivery — the deterministic
// resolution rule for traffic racing a death. A unicast frame addressed
// to a location the mote has since vacated is likewise lost (nobody is
// there to hear it); in-flight broadcasts are still heard at the new
// position.
func (n *Node) ReceiveFrame(f radio.Frame) {
	if n.life != NodeUp || (!f.IsBroadcast() && f.Dst != n.loc) {
		n.stats.FramesMissed++
		return
	}
	if n.bat != nil {
		n.charge(n.bat.recvFixed + uint64(len(f.Payload))*n.bat.recvByte)
		if n.life != NodeUp {
			// Receiving this frame emptied the battery: it is lost like
			// any other delivery to a dead mote.
			n.stats.FramesMissed++
			return
		}
	}
	n.net.HandleFrame(f)
}

// handleDirect receives one-hop migration and gossip traffic from the
// network stack.
func (n *Node) handleDirect(f radio.Frame) {
	switch f.Kind {
	case radio.KindMigrate:
		n.acceptMigrationMsg(f.Payload, f.Src, false)
	case radio.KindMigrateCtl:
		n.recvMigrationAck(f.Payload)
	case radio.KindReplicaDigest:
		n.recvReplicaDigest(f)
	case radio.KindReplicaDelta:
		n.recvReplicaDelta(f)
	}
}

// handleRouted receives end-to-end traffic: remote tuple space requests
// addressed to this node, replies to requests this node initiated, and
// the messages and completion acks of end-to-end migrations.
func (n *Node) handleRouted(kind radio.FrameKind, env wire.Envelope) {
	switch kind {
	case radio.KindMigrateRouted:
		n.acceptMigrationMsg(env.Body, env.Src, true)
	case radio.KindMigrateRoutedCtl:
		n.recvCompletionAck(env.Body)
	case radio.KindRemoteTS:
		n.serveRemoteRequest(env)
	case radio.KindRemoteTSR:
		n.recvRemoteReply(env)
	}
}

// --- vm.Host implementation ---------------------------------------------

// RandInt16 implements vm.Host.
func (n *Node) RandInt16(mod int16) int16 {
	if mod <= 0 {
		return 0
	}
	return int16(n.sim.Rand().Int63n(int64(mod)))
}

// NumNeighbors implements vm.Host (the numnbrs instruction).
func (n *Node) NumNeighbors() int { return n.net.Acquaintances().Len() }

// Neighbor implements vm.Host (the getnbr instruction).
func (n *Node) Neighbor(i int) (topology.Location, bool) {
	nb, ok := n.net.Acquaintances().At(i)
	if !ok {
		return topology.Location{}, false
	}
	return nb.Loc, true
}

// Sense implements vm.Host.
func (n *Node) Sense(s tuplespace.SensorType) (int16, bool) {
	if n.board == nil {
		return 0, false
	}
	if n.bat != nil {
		n.charge(n.bat.sense)
	}
	return n.board.Sense(s, n.sim.Now())
}

// SetLED implements vm.Host.
func (n *Node) SetLED(v int16) { n.led = v }

// Scratch implements vm.Host: the shard's tuple scratch, which every
// agent of every mote on the shard shares.
func (n *Node) Scratch() *vm.Scratch { return &n.scratch }

// TSOut implements vm.Host.
func (n *Node) TSOut(t tuplespace.Tuple) error { return n.space.Out(t) }

// TSInp implements vm.Host.
func (n *Node) TSInp(p tuplespace.Template, dst []tuplespace.Value) (tuplespace.Tuple, bool) {
	return n.space.Lookup(p, true, dst)
}

// TSRdp implements vm.Host.
func (n *Node) TSRdp(p tuplespace.Template, dst []tuplespace.Value) (tuplespace.Tuple, bool) {
	return n.space.Lookup(p, false, dst)
}

// TSCount implements vm.Host.
func (n *Node) TSCount(p tuplespace.Template) int { return n.space.Count(p) }

// RegisterReaction implements vm.Host.
func (n *Node) RegisterReaction(r tuplespace.Reaction) error { return n.registry.Register(r) }

// DeregisterReaction implements vm.Host.
func (n *Node) DeregisterReaction(agentID uint16, p tuplespace.Template) bool {
	return n.registry.Deregister(agentID, p)
}

var _ vm.Host = (*Node)(nil)
var _ radio.Receiver = (*Node)(nil)
