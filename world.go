package agilla

// Dynamic worlds: node churn, mobility, and energy. The paper's pitch is
// agents that adapt to a hostile, changing network (§1, §5); this file is
// the host-facing surface for making the network actually hostile — nodes
// die, recover, relocate, and drain batteries while the simulation runs,
// deterministically under both the sequential and the sharded kernel.
//
// Three entry points:
//
//   - Immediate: nw.Kill / nw.Revive / nw.Move between runs.
//   - Scripted: WorldEvent values (KillAt, ReviveAt, MoveAt) passed to
//     nw.Script or Scenario.Faults.
//   - Stochastic: a seeded ChurnProcess on Scenario, expanded into a
//     deterministic kill/revive schedule from the run's seed.

import (
	"fmt"
	"time"

	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/sim"
)

// ErrNodeDown reports an operation addressed to — or an agent that died
// with — a node that is down. Test with errors.Is.
var ErrNodeDown = core.ErrNodeDown

// NodeLife is a node's lifecycle state.
type NodeLife = core.LifeState

// Node lifecycle states, as reported by Network.Life.
const (
	NodeUp         = core.NodeUp         // beaconing and executing agents
	NodeDown       = core.NodeDown       // dead: radio off, volatile state lost
	NodeRecovering = core.NodeRecovering // booting after Revive
)

// DownCause says why a node died.
type DownCause = core.DownCause

// Down causes.
const (
	CauseKilled = core.CauseKilled // scripted fault or host API
	CauseEnergy = core.CauseEnergy // battery exhausted
)

// EnergyModel configures per-mote batteries: joule costs per VM
// instruction, radio transmission/reception, and sensor sample, plus a
// continuous idle drain. A mote whose battery empties dies on the spot
// (EventEnergyExhausted, then EventNodeDied) and the network routes
// around it. The zero value disables the model; DefaultEnergyModel
// returns MICA2-calibrated costs.
type EnergyModel = core.EnergyModel

// DefaultEnergyModel returns joule costs calibrated to the MICA2 mote the
// paper deployed, with a deliberately small battery so simulated
// scenarios reach exhaustion; raise CapacityJ for long-lived worlds.
func DefaultEnergyModel() EnergyModel { return core.DefaultEnergyModel() }

// WorldEventKind discriminates WorldEvent variants.
type WorldEventKind uint8

// World event kinds.
const (
	WorldKill WorldEventKind = iota + 1
	WorldRevive
	WorldMove
)

func (k WorldEventKind) String() string {
	switch k {
	case WorldKill:
		return "kill"
	case WorldRevive:
		return "revive"
	case WorldMove:
		return "move"
	default:
		return fmt.Sprintf("world(%d)", uint8(k))
	}
}

// WorldEvent is one scheduled world mutation: a node death, recovery, or
// relocation at an absolute virtual time. Build them with KillAt,
// ReviveAt, and MoveAt; apply them with Network.Script or declaratively
// via Scenario.Faults. Locations resolve when the event fires, against
// the world as it then is; an event that resolves to nothing (no node
// there, target occupied, base station addressed) is counted in
// WorldStats.Rejected rather than failing the run.
type WorldEvent struct {
	// At is the absolute virtual time the event fires (Network.Now
	// coordinates: warm-up time counts).
	At time.Duration
	// Kind selects the mutation.
	Kind WorldEventKind
	// Loc is the node addressed: the victim of a kill/revive, the source
	// of a move.
	Loc Location
	// To is the move destination (moves only).
	To Location
}

// KillAt schedules the mote at loc to die at virtual time at: radio off,
// beacons stop, hosted agents die with it (their handles report
// ErrNodeDown), volatile state lost. In-flight frames to it are lost at
// delivery; senders time out and run the §3.2 failure paths.
func KillAt(at time.Duration, loc Location) WorldEvent {
	return WorldEvent{At: at, Kind: WorldKill, Loc: loc}
}

// ReviveAt schedules the dead mote at loc to boot again at virtual time
// at. It comes back BootDelay later with empty spaces, a fresh battery,
// and re-seeded context tuples, and neighbors re-discover it by beacon.
func ReviveAt(at time.Duration, loc Location) WorldEvent {
	return WorldEvent{At: at, Kind: WorldRevive, Loc: loc}
}

// MoveAt schedules the mote at from to relocate to to at virtual time at.
// The mote keeps its agents, tuples, and battery; its address, sensing
// position, and connectivity change instantly (geometric topologies
// re-derive links from the new coordinates; explicit link sets carry
// their edges). In-flight unicast frames to the vacated location are
// lost; broadcasts are still heard.
func MoveAt(at time.Duration, from, to Location) WorldEvent {
	return WorldEvent{At: at, Kind: WorldMove, Loc: from, To: to}
}

func (e WorldEvent) String() string {
	switch e.Kind {
	case WorldMove:
		return fmt.Sprintf("%v at %v: %v -> %v", e.Kind, e.At, e.Loc, e.To)
	default:
		return fmt.Sprintf("%v at %v: %v", e.Kind, e.At, e.Loc)
	}
}

// WorldStats counts world-event outcomes.
type WorldStats = core.WorldStats

// WorldStats returns the world-event counters: applied kills, revives,
// moves, and events that resolved to nothing.
func (nw *Network) WorldStats() WorldStats { return nw.d.WorldStats() }

// Script schedules world events on the running network. Call it between
// runs (or from a Scenario Play hook); events fire at their absolute
// virtual times, in time order, after all ordinary middleware events of
// the same instant — identically under both executors.
func (nw *Network) Script(events ...WorldEvent) {
	for _, e := range events {
		switch e.Kind {
		case WorldKill:
			nw.d.KillAt(e.At, e.Loc)
		case WorldRevive:
			nw.d.ReviveAt(e.At, e.Loc)
		case WorldMove:
			nw.d.MoveAt(e.At, e.Loc, e.To)
		default:
			// A hand-built event with a zero or unknown Kind resolves to
			// nothing; count it rather than dropping it silently.
			nw.d.RejectWorld()
		}
	}
}

// Kill takes the mote at loc down at the next instant. It returns
// ErrNoSuchNode for an empty location; killing the base station or an
// already-down mote is a no-op counted in WorldStats.Rejected.
func (nw *Network) Kill(loc Location) error {
	if nw.d.Node(loc) == nil {
		return fmt.Errorf("%w at %v", ErrNoSuchNode, loc)
	}
	nw.d.KillAt(nw.d.Sim.Now(), loc)
	return nil
}

// Revive boots the dead mote at loc at the next instant.
func (nw *Network) Revive(loc Location) error {
	if nw.d.Node(loc) == nil {
		return fmt.Errorf("%w at %v", ErrNoSuchNode, loc)
	}
	nw.d.ReviveAt(nw.d.Sim.Now(), loc)
	return nil
}

// Move relocates the mote at from to to at the next instant.
func (nw *Network) Move(from, to Location) error {
	if nw.d.Node(from) == nil {
		return fmt.Errorf("%w at %v", ErrNoSuchNode, from)
	}
	nw.d.MoveAt(nw.d.Sim.Now(), from, to)
	return nil
}

// Life reports the lifecycle state of the node at loc; ok is false when
// no node lives there (never has, or moved away).
func (nw *Network) Life(loc Location) (NodeLife, bool) {
	n := nw.d.Node(loc)
	if n == nil {
		return 0, false
	}
	return n.Life(), true
}

// Battery reports the node's energy state in joules; ok is false when no
// node lives at loc or the network has no energy model.
func (nw *Network) Battery(loc Location) (usedJ, capacityJ float64, ok bool) {
	n := nw.d.Node(loc)
	if n == nil {
		return 0, 0, false
	}
	return n.Battery()
}

// ChurnProcess is a seeded stochastic fault model: each selected mote
// alternates exponentially distributed up and down periods, giving the
// memoryless churn of deployment studies. The schedule is expanded from
// the scenario seed before the run starts, so it is fully deterministic
// per seed and identical under both executors.
type ChurnProcess struct {
	// MeanUp and MeanDown are the mean lifetimes of the up and down
	// phases (defaults 30s and 5s).
	MeanUp, MeanDown time.Duration
	// Start and End bound the churn window in absolute virtual time
	// (End 0 = the whole run; Start 0 starts churning immediately —
	// usually set Start past warm-up).
	Start, End time.Duration
	// Nodes restricts churn to these locations (nil: every mote).
	Nodes []Location
}

// saltChurn namespaces churn streams within the seed's stream space.
const saltChurn = 0x6368726e // "chrn"

// expand renders the process into a deterministic kill/revive schedule
// for the given motes. Each mote draws from its own location-keyed
// stream, so one mote's schedule never depends on how many others churn.
func (c ChurnProcess) expand(seed int64, all []Location, horizon time.Duration) []WorldEvent {
	meanUp, meanDown := c.MeanUp, c.MeanDown
	if meanUp <= 0 {
		meanUp = 30 * time.Second
	}
	if meanDown <= 0 {
		meanDown = 5 * time.Second
	}
	end := c.End
	if end <= 0 || end > horizon {
		end = horizon
	}
	nodes := c.Nodes
	if nodes == nil {
		nodes = all
	}
	var out []WorldEvent
	for _, loc := range nodes {
		rng := sim.Stream(seed, saltChurn, uint64(sim.Key2D(loc.X, loc.Y)))
		at := c.Start
		for {
			at += time.Duration(rng.ExpFloat64() * float64(meanUp))
			if at >= end {
				break
			}
			out = append(out, KillAt(at, loc))
			at += time.Duration(rng.ExpFloat64() * float64(meanDown))
			if at >= end {
				break
			}
			out = append(out, ReviveAt(at, loc))
		}
	}
	return out
}
