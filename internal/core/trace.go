package core

import (
	"time"

	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
	"github.com/agilla-go/agilla/internal/wire"
)

// Trace observes middleware events across all nodes. The experiment harness
// uses it to measure reliability and latency without instrumenting the
// protocol code. All fields are optional. A tuple a hook is handed is
// valid only during the call (it may be the shard's tuple scratch): a
// hook copies what it keeps.
type Trace struct {
	// AgentArrived fires when an agent materializes on a node: injection,
	// completed move, or clone instantiation.
	AgentArrived func(node topology.Location, id uint16, kind wire.MigKind, from topology.Location)
	// AgentCloned fires on the node where a clone is instantiated, just
	// before the clone's AgentArrived: parent is the agent it was cloned
	// from, clone its freshly minted ID.
	AgentCloned func(node topology.Location, parent, clone uint16)
	// AgentHalted fires when an agent executes halt.
	AgentHalted func(node topology.Location, id uint16)
	// AgentDied fires when an agent dies: with an error, with its node
	// (ErrNodeDown), or killed by the host (ErrKilled).
	AgentDied func(node topology.Location, id uint16, err error)
	// MigrationStarted fires on the sender when a transfer begins
	// (once per hop).
	MigrationStarted func(node topology.Location, id uint16, kind wire.MigKind, dest topology.Location)
	// MigrationDone fires on the sender when the hop transfer concludes.
	MigrationDone func(node topology.Location, id uint16, kind wire.MigKind, dest topology.Location, ok bool)
	// RemoteDone fires on the initiator when a remote tuple space
	// operation resolves (reply received or timed out).
	RemoteDone func(node topology.Location, id uint16, kind vm.RemoteKind, dest topology.Location, ok bool, elapsed time.Duration)
	// TupleOut fires on every successful local tuple insertion.
	TupleOut func(node topology.Location, t tuplespace.Tuple)
	// ReactionFired fires when a tuple insertion triggers a registered
	// reaction, once per (reaction, tuple) firing queued on the owning
	// agent.
	ReactionFired func(node topology.Location, id uint16, t tuplespace.Tuple)
	// InstrExecuted fires after every instruction.
	InstrExecuted func(node topology.Location, id uint16, op vm.Op)

	// NodeDied fires when a mote goes down — a scripted kill, the host
	// API, or battery exhaustion (see cause). Hosted agents report their
	// own AgentDied (with ErrNodeDown) first.
	NodeDied func(node topology.Location, cause DownCause)
	// NodeRecovered fires when a dead mote finishes booting and is back
	// on the air.
	NodeRecovered func(node topology.Location)
	// NodeMoved fires when a mote relocates; from is the vacated
	// location.
	NodeMoved func(from, to topology.Location)
	// EnergyExhausted fires at the instant a battery empties, just before
	// the NodeDied it causes. usedJ is the emptied battery's drain in
	// joules (the current cells only — a revived mote starts fresh).
	EnergyExhausted func(node topology.Location, usedJ float64)
	// ReplicaSynced fires on a node whenever a gossip delta changes its
	// replica store; peer is the delta's sender.
	ReplicaSynced func(node, peer topology.Location, added, removed int)
	// TupleRecovered fires when a recovered node re-inserts a tuple it
	// originated, streamed back from a neighbor's replica store.
	TupleRecovered func(node topology.Location, t tuplespace.Tuple)
}

// AgentInfo is the deployment-wide view of one agent's life: where it was
// last hosted, how far it has travelled, how many clones it spawned, and
// how it ended. A host builds it from the trace: the agent hooks above
// carry every fact it holds.
//
// The duplicate-tolerant failure semantics (§3.2) mean an ID can briefly
// name two live copies; a record that follows the most recent event
// follows the copy that made progress.
type AgentInfo struct {
	// ID is the network-unique agent ID.
	ID uint16
	// Parent is the agent this one was cloned from, 0 for originals.
	Parent uint16
	// Loc is the last node known to host the agent. While a multi-hop
	// transfer is relaying, Loc lags at the last node that reported an
	// event for the agent.
	Loc topology.Location
	// State is the coarse life-cycle state, refined by the hosting
	// node's live engine state (Node.AgentInfo) where one is known.
	State AgentState
	// Hops counts successfully completed hop transfers (sender-confirmed),
	// including relay hops of multi-hop moves and injections. Clone
	// transfers are not counted: they travel under the parent's ID while
	// the parent stays put.
	Hops int
	// Clones counts clones this agent has spawned (local and remote).
	Clones int
	// Halted reports a voluntary halt; Err carries the fatal error for
	// agents that died. Both false/nil while the agent lives.
	Halted bool
	Err    error
	// BornAt and DoneAt are virtual timestamps; DoneAt is zero while the
	// agent lives.
	BornAt time.Duration
	DoneAt time.Duration
}

// Done reports whether the agent's life is over (halted, died, or killed).
func (i AgentInfo) Done() bool { return i.State == AgentDead }

// NodeStats counts per-node middleware activity.
type NodeStats struct {
	InstrExecuted   uint64
	AgentsHosted    uint64 // arrivals + local creations over all time
	AgentsHalted    uint64
	AgentsDied      uint64
	MigrationsOut   uint64 // hop transfers initiated
	MigrationsOK    uint64
	MigrationsFail  uint64
	RemoteInitiated uint64
	RemoteOK        uint64
	RemoteFail      uint64
	ReactionsFired  uint64
	// FramesMissed counts frames that reached the antenna of a mote that
	// was down, booting, or no longer at the frame's destination.
	FramesMissed uint64
	// EnergyDeaths counts battery exhaustions (each also increments the
	// deployment's NodeDied accounting via the world counters).
	EnergyDeaths uint64
	// TuplesReplicated counts replica entries this node accepted from
	// gossip deltas; TuplesRecovered counts own tuples re-inserted into
	// the arena after a crash, streamed back by neighbors.
	TuplesReplicated uint64
	TuplesRecovered  uint64
	// DigestsSent counts gossip digest frames transmitted;
	// DigestsSuppressed counts digest frames the quiescence optimization
	// elided because the replica store hadn't changed since the last
	// send (see Replication.QuiescentEvery).
	DigestsSent       uint64
	DigestsSuppressed uint64
}
