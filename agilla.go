// Package agilla is a Go reproduction of Agilla, the mobile-agent
// middleware for wireless sensor networks from "Rapid Development and
// Flexible Deployment of Adaptive Wireless Sensor Network Applications"
// (Fok, Roman, Lu — ICDCS 2005 / WUCSE-2004-59).
//
// An Agilla network is deployed with no pre-installed application. Users
// inject mobile agents — tiny stack-machine programs written in a
// high-level assembly — that migrate and clone across nodes, coordinating
// through per-node Linda-like tuple spaces with reactions.
//
// The original runs on MICA2 motes under TinyOS; this package runs the
// complete middleware on a deterministic discrete-event mote simulator
// with a calibrated CC1000 radio model, so protocol behavior (hop-by-hop
// migration with acknowledgments, remote tuple space operations, neighbor
// discovery, greedy geographic routing) is reproduced faithfully at
// laptop scale.
//
// Quick start — build a deployment with functional options, author an
// agent with the typed program builder, launch it, and watch it through
// its handle:
//
//	nw, err := agilla.New(
//		agilla.WithTopology(agilla.Ring(12)),
//		agilla.WithSeed(7),
//	)
//	if err != nil { ... }
//	if err := nw.WarmUp(); err != nil { ... }
//	p, err := program.New("blink").PushC(7).Putled().Halt().Build()
//	if err != nil { ... }
//	ag, err := nw.Launch(p, nw.Locations()[5])
//	if err != nil { ... }
//	done, _ := ag.WaitDone(30 * time.Second)
//	fmt.Println(done, ag.Hops(), ag.Location())
//
// Agents are authored through the program package — a fluent typed
// builder with combinators, an assembler for the paper's textual
// dialect (program.Parse), raw bytecode adoption (program.FromBytes),
// and the paper's canned agents (program.Library). All three forms are
// statically verified and converge on one *Program value accepted by
// Network.Launch.
//
// Topologies other than the paper's 5×5 grid — Line, Ring, RandomDisk,
// and Custom coordinate sets — run the identical middleware over
// different geometry. The zero-argument New() builds the paper's testbed.
// For whole experiments (topology + field + agents + metrics, swept over
// seeds in parallel) see Scenario. Large deployments can run the
// simulation kernel itself on several cores with WithWorkers(n) — a
// sharded run reproduces the one-worker schedule event for event,
// so results stay byte-identical per seed (see the README's Scaling
// section).
//
// Hosts interact with a running network through three composable
// surfaces:
//
//   - Space — a per-node tuple space handle from nw.Space(loc), with
//     direct probes (Out/Rdp/Inp/Count/All) and reactive Watch(Template)
//     subscriptions delivering matching insertions on a channel.
//   - RemoteClient — the base station's over-the-air client from
//     nw.Remote(), exposing the wire operations Rout/Rinp/Rrdp with
//     deadlines derived from the node configuration, plus a network-wide
//     Query that fans rrdp out across every mote.
//   - Events — one Event record per middleware occurrence (agent
//     arrivals and deaths, migrations, remote ops, tuple activity,
//     reaction firings, node lifecycle, replica syncs) from
//     nw.Events(filters...); Event.Kind says which fields are set.
//
// The world itself is dynamic: nodes die, recover, move, and drain
// batteries while the simulation runs — scripted with WorldEvent values
// (KillAt/ReviveAt/MoveAt), stochastically with a seeded ChurnProcess,
// or with per-mote batteries via WithEnergy — all deterministic per seed
// under both executors. See the README's "Dynamic worlds" section.
package agilla

import (
	"errors"
	"fmt"
	"time"

	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/firesim"
	"github.com/agilla-go/agilla/internal/sensor"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/transport"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/program"
)

// Location is a node address: Agilla addresses nodes by physical location
// (§2.2 of the paper).
type Location = topology.Location

// Loc constructs a Location.
func Loc(x, y int16) Location { return topology.Loc(x, y) }

// Value is one typed datum: a tuple field or a VM stack slot.
type Value = tuplespace.Value

// Tuple is an ordered set of typed fields.
type Tuple = tuplespace.Tuple

// Template matches tuples by per-field equality with type wildcards.
type Template = tuplespace.Template

// SensorType identifies a sensor on the mote's board.
type SensorType = tuplespace.SensorType

// Sensor types carried by the default simulated board.
const (
	SensorTemperature = tuplespace.SensorTemperature
	SensorPhoto       = tuplespace.SensorPhoto
	SensorSound       = tuplespace.SensorSound
	SensorSmoke       = tuplespace.SensorSmoke
)

// Field drives what sensors read over space and time.
type Field = sensor.Field

// Fire is the wildfire environment of the paper's case study (§5). Use
// NewFire, ignite it, and pass it with WithField.
type Fire = firesim.Fire

// Rect is an inclusive rectangle; Fire.Bounds clips the spread to one.
type Rect = firesim.Rect

// Node is one simulated mote running the middleware.
type Node = core.Node

// AgentState reports where an agent is in its life cycle.
type AgentState = core.AgentState

// Agent life-cycle states, as reported by Agent.State.
const (
	AgentReady     = core.AgentReady     // runnable, in the engine's queue
	AgentSleeping  = core.AgentSleeping  // executed sleep
	AgentWaiting   = core.AgentWaiting   // executed wait; resumes on a reaction
	AgentBlocked   = core.AgentBlocked   // blocking in/rd with no match
	AgentMigrating = core.AgentMigrating // suspended while a transfer is in flight
	AgentRemote    = core.AgentRemote    // awaiting a remote tuple space reply
	AgentDead      = core.AgentDead      // reclaimed
)

// AgentInfo is the deployment-wide record behind an Agent handle.
type AgentInfo = core.AgentInfo

// NodeConfig tunes per-mote middleware budgets and protocol timers; the
// zero value selects the paper's defaults (§3.2).
type NodeConfig = core.Config

// ErrRemoteTimeout reports that a remote tuple space operation exhausted
// its retransmission budget without a reply reaching the initiator.
var ErrRemoteTimeout = core.ErrRemoteTimeout

// ErrNoSuchNode reports an operation addressed to a location where the
// deployment has no node. Launch, Space.Out, and RemoteClient operations
// wrap it; test with errors.Is.
var ErrNoSuchNode = errors.New("agilla: no such node")

// ErrAdmission reports that Launch rejected a program under
// WithAdmissionBudget: the static analysis found error-level defects, no
// finite per-burst energy bound, or a bound above the configured budget.
// The wrapped error carries the findings; test with errors.Is.
var ErrAdmission = errors.New("agilla: admission rejected program")

// Program is a verified agent program — the one currency accepted by
// Launch, whichever way it was authored. Build one with the program
// package: program.New() for the typed builder, program.Parse for
// assembly source, program.FromBytes for raw bytecode, or
// program.Library for the paper's canned agents.
type Program = program.Program

// Re-exported tuple field constructors.
var (
	// Int constructs an integer field.
	Int = tuplespace.Int
	// Str constructs a short string field (at most 3 characters).
	Str = tuplespace.Str
	// LocV constructs a location field.
	LocV = tuplespace.LocV
	// Reading constructs a sensor-reading field.
	Reading = tuplespace.Reading
	// TypeV constructs a type-wildcard field for templates.
	TypeV = tuplespace.TypeV
	// AgentIDV constructs an agent-id field.
	AgentIDV = tuplespace.AgentIDV
	// T builds a tuple from fields.
	T = tuplespace.T
	// Tmpl builds a template from fields.
	Tmpl = tuplespace.Tmpl
	// TypeOfSensor returns the wildcard matching readings of a sensor.
	TypeOfSensor = tuplespace.TypeOfSensor
)

// NewFire creates a fire environment spreading one cell every spreadEvery,
// clipped to the w×h deployment grid.
func NewFire(spreadEvery time.Duration, w, h int) *Fire {
	b := firesim.GridBounds(w, h)
	return firesim.New(spreadEvery, &b)
}

// Network is a running Agilla deployment.
type Network struct {
	d         *core.Deployment
	ev        events
	agents    registry
	admission *admission

	// bridge, when non-nil, connects this process's half of the field to
	// peer processes over a transport (WithTransportBridge). Bridged runs
	// advance in quanta of the configured pump interval; idle runs after
	// each quantum (default: a 1:1 wall-clock sleep so concurrently
	// running peers keep pace — tests swap in a hook that co-drives the
	// peer network instead).
	bridge  *transport.Bridge
	quantum time.Duration
	idle    func(step time.Duration)
}

// admission is the resolved WithAdmissionBudget policy: the per-burst
// joule cap (0 = no cap, reject only uncertifiable programs) and the
// deployment's energy calibration for the static bound.
type admission struct {
	budgetJ float64
	costs   program.EnergyCosts
}

// check analyzes p and returns the admission decision.
func (a *admission) check(p *Program) error {
	rep := program.AnalyzeWithCosts(p, a.costs)
	if err := rep.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrAdmission, err)
	}
	if rep.EnergyUnbounded {
		return fmt.Errorf("%w: no finite energy bound (%s)", ErrAdmission, rep.UnboundedPos)
	}
	if a.budgetJ > 0 && rep.EnergyBoundJ() > a.budgetJ {
		return fmt.Errorf("%w: worst-case burst %.2g J exceeds budget %.2g J",
			ErrAdmission, rep.EnergyBoundJ(), a.budgetJ)
	}
	return nil
}

// Topology returns the name of the deployment's layout.
func (nw *Network) Topology() string { return nw.d.Layout().Name }

// Locations returns every mote location in deployment order (excluding
// the base station).
func (nw *Network) Locations() []Location { return nw.d.Locations() }

// Replication returns the deployment's replication configuration with
// defaults resolved, or nil when the network was built without
// WithReplication.
func (nw *Network) Replication() *Replication { return nw.d.Replication() }

// Field returns the sensor field driving this deployment's readings, or
// nil when all sensors read 0. A scenario's Play hook uses it to reach
// the environment (e.g. to ignite a *Fire) without carrying it
// separately.
func (nw *Network) Field() Field { return nw.d.Field() }

// Size returns the bounding-box dimensions of the mote layout; for a
// w×h grid it returns (w, h).
func (nw *Network) Size() (w, h int) {
	minX, minY, maxX, maxY := nw.d.Layout().Bounds()
	return int(maxX-minX) + 1, int(maxY-minY) + 1
}

// Bounds returns the inclusive bounding box of the mote layout; use it
// to clip environment models (e.g. Fire.Bounds) to the deployment.
func (nw *Network) Bounds() Rect {
	minX, minY, maxX, maxY := nw.d.Layout().Bounds()
	return Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
}

// Now returns the current virtual time.
func (nw *Network) Now() time.Duration { return nw.d.Sim.Now() }

// WarmUp starts beaconing and runs until neighbor discovery settles.
// Call once before injecting agents. On a bridged network the warm-up is
// pumped every quantum so beacons relay across the border and both halves
// discover their cross-process neighbors.
func (nw *Network) WarmUp() error {
	if nw.bridge == nil {
		return nw.d.WarmUp()
	}
	nw.d.Start()
	return nw.Run(nw.d.WarmUpSpan())
}

// Run advances virtual time by d. On a bridged network the run proceeds
// in pump quanta (see WithTransportBridge).
func (nw *Network) Run(d time.Duration) error {
	_, err := nw.runUntilAt(nil, nw.d.Sim.Now()+d)
	return err
}

// RunUntil advances virtual time until pred is true or limit elapses,
// reporting whether pred became true. Bridged networks evaluate pred at
// pump-quantum boundaries.
func (nw *Network) RunUntil(pred func() bool, limit time.Duration) (bool, error) {
	return nw.runUntilAt(pred, nw.d.Sim.Now()+limit)
}

// Launch injects a verified Program from the base station toward dest,
// returning a handle that tracks the agent across the network. This is
// the one entry point for all three authoring forms:
//
//	p := program.New("ping").MoveTo(dest).Halt().MustBuild()
//	ag, err := nw.Launch(p, dest)
//
// Launching at a location with no node fails with ErrNoSuchNode. Under
// WithAdmissionBudget, programs the static analysis cannot certify
// within the budget fail with ErrAdmission.
func (nw *Network) Launch(p *Program, dest Location) (*Agent, error) {
	if p == nil {
		return nil, fmt.Errorf("agilla: Launch needs a program")
	}
	if nw.d.Node(dest) == nil && !nw.bridgeOwns(dest) {
		return nil, fmt.Errorf("%w at %v", ErrNoSuchNode, dest)
	}
	if nw.admission != nil {
		if err := nw.admission.check(p); err != nil {
			return nil, err
		}
	}
	id, err := nw.d.Base.InjectAgent(p.Bytes(), dest)
	if err != nil {
		return nil, err
	}
	return &Agent{nw: nw, id: id}, nil
}

// Node returns the mote at loc, or nil. The base station is at (0,0).
func (nw *Network) Node(loc Location) *Node { return nw.d.Node(loc) }

// Base returns the base station node.
func (nw *Network) Base() *Node { return nw.d.Base }

// TotalAgents counts live agents across the network (including in-flight
// shells occupying slots).
func (nw *Network) TotalAgents() int { return nw.d.TotalAgents() }
