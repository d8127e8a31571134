package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/agilla-go/agilla/internal/replica"
	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

// World dynamics: node churn (kill/revive), mobility, and the events that
// drive them. The paper's whole premise is that agents adapt to a network
// whose nodes fail and whose environment changes (§1, §5); this file makes
// those dynamics first-class and online — the world can mutate while the
// simulation runs, deterministically under both executors.
//
// Two mechanisms with different determinism footprints:
//
//   - Death and recovery are node-local: a down mote's radio simply
//     ignores deliveries (the check runs on the node's own scheduling
//     context), beacons stop, and neighbors expire it from their
//     acquaintance lists, so no cross-shard state is touched and the
//     effect takes hold at the exact event time under either executor.
//     In-flight frames to a dead mote are resolved by one deterministic
//     rule: they are lost at delivery, exactly as if the receiver's radio
//     were off. Senders see silence, retransmit, and fail over — the §3.2
//     fault-tolerance machinery unchanged.
//
//   - Moves mutate state other shards read while sending (the medium's
//     attachment table, topology geometry, the deployment node map), so
//     they execute as world events (sim.Executor.ScheduleWorldAt): under
//     the parallel executor the window loop clips at the event's
//     timestamp and runs it at a barrier with every shard synced exactly
//     there, making a cross-shard move replay the sequential schedule
//     event for event. Scripted kills and revivals ride the same lane so
//     one schedule covers all three.

// ErrNodeDown reports an operation addressed to (or an agent hosted on) a
// node that is down. Agents die with their host; their tracked record
// carries this error, and Agent.Wait surfaces it instead of idling out.
var ErrNodeDown = errors.New("core: node is down")

// LifeState is a node's lifecycle state.
type LifeState uint8

// Node lifecycle states.
const (
	NodeUp         LifeState = iota // attached, beaconing, executing agents
	NodeDown                        // dead: radio off, volatile state lost
	NodeRecovering                  // powered back on, booting the middleware
)

func (s LifeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDown:
		return "down"
	case NodeRecovering:
		return "recovering"
	default:
		return fmt.Sprintf("life(%d)", uint8(s))
	}
}

// DownCause says why a node died.
type DownCause uint8

// Down causes.
const (
	CauseKilled DownCause = iota + 1 // scripted fault or host API
	CauseEnergy                      // battery exhausted
)

func (c DownCause) String() string {
	switch c {
	case CauseKilled:
		return "killed"
	case CauseEnergy:
		return "energy"
	default:
		return fmt.Sprintf("cause(%d)", uint8(c))
	}
}

// Life returns the node's lifecycle state.
func (n *Node) Life() LifeState { return n.life }

// Crash takes the node down: the radio stops receiving, beacons stop,
// hosted agents die with the node (their records report ErrNodeDown), and
// all volatile state — tuple space, reaction registry, instruction
// memory, protocol sessions — is lost, as a real mote's RAM would be. It
// reports whether the node was up.
//
// Crash is node-local: it touches no state other scheduling contexts
// read, so it is safe at any event time under either executor. It is
// called by the energy model at the exact instant a battery empties and
// by scripted kill events.
func (n *Node) Crash(cause DownCause) bool {
	if n.life != NodeUp {
		return false
	}
	n.life = NodeDown
	n.net.Stop()
	n.stopBatteryTick()
	if n.bat != nil {
		// Settle idle drain up to the moment of death; a powered-off mote
		// drains nothing, so the figure freezes here until Recover
		// replaces the cells.
		n.bat.accrue(n.sim.Now())
	}
	// Hosted agents die with the node.
	for _, rec := range n.agents {
		id := rec.agent.ID
		rec.state = AgentDead
		rec.wake.Stop()
		n.stats.AgentsDied++
		n.tracker.finish(n.sim.Now(), n.loc, id, false, ErrNodeDown)
		if n.trace.AgentDied != nil {
			n.trace.AgentDied(n.loc, id, ErrNodeDown)
		}
	}
	clear(n.agents)
	n.agents = n.agents[:0]
	n.runq.Clear()
	// Volatile protocol sessions vanish with the RAM; peers time out and
	// run their failure paths.
	//lint:maprange independent timer cancellations; no cross-entry effects
	for _, om := range n.out {
		om.timer.Stop()
	}
	clear(n.out)
	// Iterate inbound sessions in a deterministic order: the per-agent
	// death events below land in the trace, and map order would vary the
	// hash run to run.
	inKeys := make([]inKey, 0, len(n.in))
	//lint:maprange collected keys are sorted below before any effects
	for k := range n.in {
		inKeys = append(inKeys, k)
	}
	sort.Slice(inKeys, func(i, j int) bool {
		a, b := inKeys[i], inKeys[j]
		if a.agentID != b.agentID {
			return a.agentID < b.agentID
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		if a.from.Y != b.from.Y {
			return a.from.Y < b.from.Y
		}
		return a.from.X < b.from.X
	})
	for _, k := range inKeys {
		im := n.in[k]
		im.stall.Stop()
		// A fully-received transfer awaiting finalizeIn is special: the
		// sender has been acked and has (or is about to have) released
		// its copy, so the agent exists only in this mote's reassembly
		// buffer — it dies here, and its record must say so or handles
		// would report AgentMigrating forever. Incomplete transfers need
		// nothing: the sender times out and fails over. Clone transfers
		// travel under the parent's ID while the parent lives on at the
		// origin, so only moves and injections die.
		if im.finalizing && !im.st.Kind.Clone() {
			id := im.key.agentID
			n.stats.AgentsDied++
			n.tracker.finish(n.sim.Now(), n.loc, id, false, ErrNodeDown)
			if n.trace.AgentDied != nil {
				n.trace.AgentDied(n.loc, id, ErrNodeDown)
			}
		}
	}
	clear(n.in)
	clear(n.done)
	//lint:maprange independent timer cancellations; no cross-entry effects
	for _, pr := range n.remote {
		pr.timer.Stop()
	}
	clear(n.remote)
	clear(n.served)
	n.reserve = 0
	// The tuple space, registry, and instruction memory are rebuilt empty.
	n.resetRAM()
	if n.repl != nil {
		// The replica store is RAM like everything else: lost with the
		// crash, re-seeded from neighbors after Recover. Only the origin
		// sequence counter survives (see replicaState.seq).
		n.stopGossip()
		n.repl.set = replica.NewSet(n.repl.cfg.MaxEntries)
	}
	n.led = 0
	if n.trace.NodeDied != nil {
		n.trace.NodeDied(n.loc, cause)
	}
	return true
}

// Recover powers a dead node back on. The mote boots for Config.BootDelay
// (state NodeRecovering, radio still deaf), then comes up fresh: context
// tuples re-seeded, battery replaced, beacons restarted. It reports
// whether the node was down.
func (n *Node) Recover() bool {
	if n.life != NodeDown {
		return false
	}
	n.life = NodeRecovering
	n.sim.Schedule(n.cfg.BootDelay, func() {
		if n.life != NodeRecovering {
			return
		}
		n.life = NodeUp
		if n.bat != nil {
			n.bat.reset(n.sim.Now())
		}
		n.seedContextTuples()
		n.net.Start()
		n.startBatteryTick()
		// Restarted gossip opens with a near-empty digest — the invitation
		// for neighbors to stream this node's tuples back (TupleRecovered).
		n.startGossip()
		if n.trace.NodeRecovered != nil {
			n.trace.NodeRecovered(n.loc)
		}
	})
	return true
}

// applyMove relocates the node to its new coordinate: the network stack's
// address, the sensor board, and the "loc" context tuple all follow.
// Callers (the deployment's move world event) have already rekeyed the
// medium and node map. The acquaintance list is deliberately kept — a
// relocated mote remembers stale neighbors until expiry, exactly as a
// physical deployment would misroute briefly after a move.
func (n *Node) applyMove(to topology.Location) {
	from := n.loc
	n.loc = to
	if n.repl != nil {
		// Dots stamped at the old address stay this node's: removal
		// tracking and recovery keep recognizing them via the former list.
		n.repl.former = append(n.repl.former, from)
	}
	n.net.SetSelf(to)
	if n.board != nil {
		n.board.MoveTo(to)
	}
	// Agents ride along: re-point their tracked records so handles
	// resolve to the new address (Location/Host/Kill keep working).
	for _, rec := range n.agents {
		n.tracker.rehome(n.sim.Now(), to, rec.agent.ID)
	}
	if n.life == NodeUp {
		// Refresh the location context tuple (§2.2); the insertion runs
		// reactions, so agents can watch their host move. Context tuples
		// are never replicated, so the refresh is muted.
		n.replicaMuted(func() {
			n.space.Inp(tuplespace.Tmpl(tuplespace.Str("loc"), tuplespace.LocV(from)))
			_ = n.space.Out(tuplespace.T(tuplespace.Str("loc"), tuplespace.LocV(to)))
		})
	}
	if n.trace.NodeMoved != nil {
		n.trace.NodeMoved(from, to)
	}
}

// WorldStats counts world-event outcomes on a deployment.
type WorldStats struct {
	Kills    uint64 // nodes taken down by scripted kills
	Revives  uint64 // nodes brought back
	Moves    uint64 // nodes relocated
	Rejected uint64 // events that resolved to nothing (no such node, occupied target, base station)
}

// WorldStats returns the world-event counters.
func (d *Deployment) WorldStats() WorldStats { return d.world }

// KillAt schedules the mote at loc to die at virtual time at. The
// location resolves when the event fires, so a schedule written against
// the initial layout keeps working after moves only if loc tracks the
// mote. Killing the base station, a location with no node, or a node
// already down counts as Rejected. The returned event can be cancelled.
func (d *Deployment) KillAt(at time.Duration, loc topology.Location) *sim.Event {
	return d.Sim.ScheduleWorldAt(at, func() { d.applyKill(loc) })
}

// ReviveAt schedules the dead mote at loc to boot again at virtual time
// at (plus its configured BootDelay before it is back on the air).
func (d *Deployment) ReviveAt(at time.Duration, loc topology.Location) *sim.Event {
	return d.Sim.ScheduleWorldAt(at, func() { d.applyRevive(loc) })
}

// MoveAt schedules the mote at from to relocate to to at virtual time at.
// The move is instantaneous: at that instant the mote leaves the air at
// from and answers at to (its agents, battery, and tuple space travel
// with it). In-flight unicast frames addressed to the vacated location
// are lost at delivery; in-flight broadcasts are still heard. Moving the
// base station, from a location with no node, or onto an occupied
// location counts as Rejected.
func (d *Deployment) MoveAt(at time.Duration, from, to topology.Location) *sim.Event {
	return d.Sim.ScheduleWorldAt(at, func() { d.applyMove(from, to) })
}

// RejectWorld counts a world event that could not even be scheduled
// (malformed kind in a host script). Scheduled events that resolve to
// nothing count themselves when they fire.
func (d *Deployment) RejectWorld() { d.world.Rejected++ }

func (d *Deployment) applyKill(loc topology.Location) {
	n := d.nodes[loc]
	if n == nil || n == d.Base || !n.Crash(CauseKilled) {
		d.world.Rejected++
		return
	}
	d.world.Kills++
}

func (d *Deployment) applyRevive(loc topology.Location) {
	n := d.nodes[loc]
	if n == nil || !n.Recover() {
		d.world.Rejected++
		return
	}
	d.world.Revives++
}

func (d *Deployment) applyMove(from, to topology.Location) {
	n := d.nodes[from]
	if n == nil || n == d.Base || d.nodes[to] != nil {
		d.world.Rejected++
		return
	}
	if err := d.Medium.Move(from, to); err != nil {
		d.world.Rejected++
		return
	}
	delete(d.nodes, from)
	d.nodes[to] = n
	d.layout.MoveNode(from, to)
	n.applyMove(to)
	d.world.Moves++
}
