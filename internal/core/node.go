package core

import (
	"errors"
	"fmt"
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
// matched, delivered at the agent's next instruction boundary.
type firing struct {
	pc    uint16
	tuple tuplespace.Tuple
}

// record is the agent manager's per-agent bookkeeping (§3.2: "The agent
// manager maintains each agent's context").
type record struct {
	agent *vm.Agent
	state AgentState
	// prog is the compiled form of the agent's code, nil when the program
	// does not verify or the node runs without the compiled backend.
	prog *vm.Compiled

	// blockTmpl and blockRemove describe an unsatisfied blocking in/rd.
	blockTmpl   tuplespace.Template
	blockRemove bool

	// pending[pendHead:] are the queued reaction firings. Consuming
	// advances pendHead instead of reslicing so the backing array is
	// reused (and delivered firings are zeroed, not retained).
	pending  []firing
	pendHead int

	sliceUsed int
	queued    bool
	wake      sim.Timer // sleep timer, bound to the sleep-expiry continuation at admit

	arrivedAt time.Duration
}

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
// tracker, the engine's scratch) is pointed at, and what a mote has not
// used yet — protocol session tables, its agents' records — is not
// allocated.
type Node struct {
	*shardEnv // cfg, trace, tracker, stepOut
	sim       *sim.Ctx
	loc       topology.Location

	life  LifeState // up / down / recovering (see world.go)
	busy  bool      // an engine step is scheduled
	burst bool      // batch straight-line instruction runs (Exec != ExecStep)

	nodeIndex  uint8 // high byte of locally assigned agent IDs
	agentCount uint8 // low byte counter
	migSeq     uint16
	reqSeq     uint16
	led        int16
	reserve    int // agent slots held by inbound migrations

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

	// Protocol session tables, each created at its first insert (see put;
	// reads, deletes and clears of a nil map are no-ops).
	out    map[migKey]*outMigration
	in     map[inKey]*inMigration
	done   map[inKey]time.Duration // recently finalized, for duplicate acks
	remote map[uint16]*pendingRemote
	served map[servedKey]servedReply // responder-side reply cache

	stats NodeStats
}

// put stores v under k in one of a node's protocol session tables,
// creating the table at its first entry — the one way anything gets into
// them.
func put[K comparable, V any](table *map[K]V, k K, v V) {
	if *table == nil {
		*table = make(map[K]V)
	}
	(*table)[k] = v
}

// shardEnv is what the nodes of one deployment that run on one executor
// shard share instead of each owning a copy. Events of one shard never
// overlap and engine steps never nest, so one scratch outcome serves them
// all; shards run concurrently, so each gets its own.
type shardEnv struct {
	cfg     Config        // defaults applied; never written after construction
	trace   *Trace        // the deployment's hook table; never nil
	tracker *agentTracker // deployment-wide agent registry; never nil
	stepOut vm.Outcome    // engineStep's scratch outcome
}

// newNode builds a mote at loc, attaches it to the medium, and seeds its
// tuple space with the pre-defined context tuples (§2.2). The board may be
// nil for a sensorless node; env is the one of the shard s runs on. The
// context must be the one keyed to loc (sim.Key2D), the same context the
// medium registers on Attach, so the node's timers and the radio's
// deliveries share one ordering identity.
func newNode(s *sim.Ctx, medium *radio.Medium, loc topology.Location, nodeIndex uint8, board *sensor.Board, env *shardEnv) (*Node, error) {
	n := &Node{
		shardEnv:  env,
		sim:       s,
		loc:       loc,
		board:     board,
		nodeIndex: nodeIndex,
	}
	n.resetRAM()
	n.stepFn = n.engineStep
	n.burst = n.cfg.Exec != ExecStep
	n.net.Init(s, medium, loc, &env.cfg.Network)
	n.net.NumAgents = func() int { return len(n.agents) }
	n.net.DeliverDirect = n.handleDirect
	n.net.DeliverRouted = n.handleRouted
	if err := medium.Attach(loc, n); err != nil {
		return nil, err
	}
	n.seedContextTuples()
	return n, nil
}

// resetRAM makes the tuple space, reaction registry and instruction memory
// empty at their configured budgets — a mote's RAM at power-on — and
// re-hooks the space's observers.
func (n *Node) resetRAM() {
	n.space.Init(n.cfg.ArenaBytes)
	n.space.OnInsert(n.onTupleInserted)
	if n.repl != nil {
		n.hookReplica()
	}
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

// Now returns the node's current virtual time: its shard clock under a
// parallel executor, the global clock otherwise.
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
// through this).
func (n *Node) Agent(id uint16) (*vm.Agent, bool) {
	rec := n.hosted(id)
	if rec == nil {
		return nil, false
	}
	return rec.agent, true
}

// KillAgent forcibly reclaims a hosted agent (the user retires an old
// application, §2.2: "old agents can die"). It reports whether the agent
// was present.
func (n *Node) KillAgent(id uint16) bool {
	rec := n.hosted(id)
	if rec == nil {
		return false
	}
	rec.state = AgentDead
	n.tracker.finish(n.sim.Now(), n.loc, id, false, nil)
	n.reclaim(id)
	return true
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
	if n.life != NodeUp {
		return 0, fmt.Errorf("%w: %v", ErrNodeDown, n.loc)
	}
	if len(n.agents)+n.reserve >= n.cfg.MaxAgents {
		return 0, fmt.Errorf("%w: %d hosted", ErrAgentLimit, len(n.agents))
	}
	id := n.NextAgentID()
	a := vm.NewAgent(id, append([]byte(nil), code...))
	rec, err := n.admitRecord(a)
	if err != nil {
		return 0, err
	}
	rec.state = AgentReady
	n.enqueue(rec)
	n.noteArrival(id, wire.MigInject, n.loc)
	return id, nil
}

// reclaim removes an agent and frees everything it held.
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
		n.space.Inp(tuplespace.Tmpl(tuplespace.Str("agt"), tuplespace.AgentIDV(id)))
	})
	copy(n.agents[i:], n.agents[i+1:])
	n.agents[len(n.agents)-1] = nil
	n.agents = n.agents[:len(n.agents)-1]
}

func (n *Node) noteArrival(id uint16, kind wire.MigKind, from topology.Location) {
	n.tracker.arrived(n.sim.Now(), n.loc, id, kind)
	if n.trace.AgentArrived != nil {
		n.trace.AgentArrived(n.loc, id, kind, from)
	}
}

// onTupleInserted is the tuple space manager's insert hook: it wakes
// blocked agents and fires matching reactions (§3.2).
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
	for _, rxn := range n.registry.Matching(t) {
		rec := n.hosted(rxn.AgentID)
		if rec == nil || rec.state == AgentDead {
			continue
		}
		rec.pending = append(rec.pending, firing{pc: rxn.PC, tuple: t})
		n.stats.ReactionsFired++
		if n.trace.ReactionFired != nil {
			n.trace.ReactionFired(n.loc, rxn.AgentID, t)
		}
		if rec.state == AgentWaiting || rec.state == AgentBlocked {
			rec.state = AgentReady
			n.enqueue(rec)
		}
	}
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
		n.recvMigrationData(f)
	case radio.KindMigrateCtl:
		n.recvMigrationAck(f)
	case radio.KindReplicaDigest:
		n.recvReplicaDigest(f)
	case radio.KindReplicaDelta:
		n.recvReplicaDelta(f)
	}
}

// handleRouted receives end-to-end traffic: remote tuple space requests
// addressed to this node and replies to requests this node initiated.
func (n *Node) handleRouted(kind radio.FrameKind, env wire.Envelope) {
	switch kind {
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

// TSOut implements vm.Host.
func (n *Node) TSOut(t tuplespace.Tuple) error { return n.space.Out(t) }

// TSInp implements vm.Host.
func (n *Node) TSInp(p tuplespace.Template) (tuplespace.Tuple, bool) { return n.space.Inp(p) }

// TSRdp implements vm.Host.
func (n *Node) TSRdp(p tuplespace.Template) (tuplespace.Tuple, bool) { return n.space.Rdp(p) }

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
