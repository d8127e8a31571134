package core

import (
	"fmt"
	"sort"
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

// InjectAgent ships a fresh agent from this node to dest, exactly as the
// base station's Java tool injects agents into the network through the
// MIB510 bridge (§3.1). The agent starts executing at dest from its first
// instruction. If dest is this node, the agent simply starts here.
//
// The returned ID identifies the agent while it is in flight; a failed
// injection resumes the agent on this node with condition zero, per the
// standard migration failure semantics.
func (n *Node) InjectAgent(code []byte, dest topology.Location) (uint16, error) {
	if n.life != NodeUp {
		return 0, fmt.Errorf("%w: %v", ErrNodeDown, n.loc)
	}
	if dest == n.loc {
		return n.CreateAgent(code)
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
	rec.state = AgentMigrating
	snap := n.snapshotAgent(rec, wire.MigInject, dest)
	n.tracker.injected(n.sim.Now(), n.loc, id)
	if n.trace.MigrationStarted != nil {
		n.trace.MigrationStarted(n.loc, id, wire.MigInject, dest)
	}
	n.sim.Schedule(n.cfg.MigSendOverhead, func() {
		n.beginTransfer(rec, snap, true)
	})
	return id, nil
}

// RemoteOp lets the base station (or a test) perform a remote tuple space
// operation without running an agent: the Java base-station application
// "allows a user to interact with the WSN by injecting agents and
// performing remote tuple space operations" (§3.1). The callback receives
// the outcome; it is invoked synchronously for local destinations. On
// timeout the callback's error is ErrRemoteTimeout and the reply's OK is
// false.
func (n *Node) RemoteOp(op wire.RemoteOp, dest topology.Location, t tuplespace.Tuple, p tuplespace.Template, done func(wire.RemoteReply, error)) {
	n.reqSeq++
	req := wire.RemoteRequest{ReqID: n.reqSeq, Op: op, ReplyTo: n.loc, Tuple: t, Template: p}
	if dest == n.loc {
		if done != nil {
			done(n.performRemote(req), nil)
		}
		return
	}
	pr := &pendingRemote{
		reqID:   req.ReqID,
		done:    done,
		dest:    dest,
		req:     req,
		started: n.sim.Now(),
	}
	n.awaitRemote(pr)
}

// Deployment is a full Agilla network: motes placed by a Layout, the
// shared radio medium, and a base station bridged to the layout's gateway
// mote. The paper's 25-mote testbed with its laptop (Figure 3) is the grid
// instance; line, ring, random-disk, and custom layouts run the identical
// middleware over different geometry.
type Deployment struct {
	Sim    sim.Executor
	Medium *radio.Medium
	Base   *Node
	Trace  *Trace

	nodes   map[topology.Location]*Node
	layout  topology.Layout
	spec    DeploymentSpec
	workers int
	tracker *agentTracker
	world   WorldStats
}

// DeploymentSpec assembles a Deployment from a layout.
type DeploymentSpec struct {
	// Layout places the motes and fixes their connectivity.
	Layout topology.Layout
	// Seed drives all randomness.
	Seed int64
	// Radio selects the loss/latency model (nil: radio.Lossy()).
	Radio *radio.Params
	// Node configures every mote and, with roomier limits, the base
	// station (zero values select paper defaults).
	Node Config
	// BaseLoc places the base station; default (0,0) as in §4.
	BaseLoc *topology.Location
	// Topo, when non-nil, replaces the whole medium topology (layout
	// links plus base bridge). Used by failure-injection tests.
	Topo topology.Topology
	// Field drives sensor readings (nil: all sensors read 0).
	Field sensor.Field
	// Energy attaches a battery with the given model to every mote (the
	// base station is mains powered). Nil disables energy accounting.
	Energy *EnergyModel
	// Replication attaches the gossip CRDT layer to every mote (the base
	// station holds no replicas). Nil disables replication.
	Replication *Replication
	// Workers selects the simulation executor: values above 1 run the
	// deployment on that many spatial shards executing in parallel,
	// windowed by the radio's minimum frame delay; 0 or 1 keeps the
	// sequential kernel. Both produce the identical per-node schedule for
	// the same seed (see internal/sim).
	Workers int
}

// NewDeployment builds a network from a layout: one mote per layout node,
// the shared medium over the layout's links, and a base station bridged
// to the gateway. All nodes share one Trace and one agent tracker.
func NewDeployment(spec DeploymentSpec) (*Deployment, error) {
	baseLoc := topology.Loc(0, 0)
	if spec.BaseLoc != nil {
		baseLoc = *spec.BaseLoc
	}
	if err := spec.Layout.Validate(baseLoc); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	params := radio.Lossy()
	if spec.Radio != nil {
		params = *spec.Radio
	}
	// The base bridge is a pointer so a moving gateway can carry the
	// bridge with it (Medium.Move rekeys via topology.Movable).
	var topo topology.Topology = &topology.WithBase{
		Inner:   spec.Layout.Links,
		Base:    baseLoc,
		Gateway: spec.Layout.Gateway,
	}
	if spec.Topo != nil {
		topo = spec.Topo
	}

	// Pick the executor. All cross-node interaction flows through radio
	// frames, so the minimum frame delay is a sound conservative lookahead
	// for the parallel kernel, whatever the topology.
	workers := spec.Workers
	window := params.FrameDelay(0)
	if workers > len(spec.Layout.Nodes)+1 {
		workers = len(spec.Layout.Nodes) + 1
	}
	if window <= 0 {
		workers = 1 // degenerate radio timing: no safe lookahead
	}
	var s sim.Executor
	if workers > 1 {
		locs := append([]topology.Location{baseLoc}, spec.Layout.Nodes...)
		strip := topology.PartitionStrips(locs, workers)
		byKey := make(map[sim.ContextKey]int, len(strip))
		//lint:maprange map-to-map rekeying; each entry is independent
		for loc, sh := range strip {
			byKey[sim.Key2D(loc.X, loc.Y)] = sh
		}
		s = sim.NewParallel(spec.Seed, workers, window, func(k sim.ContextKey) int {
			return byKey[k] // unknown keys (harness contexts) ride shard 0
		})
	} else {
		workers = 1
		seq := sim.New(spec.Seed)
		if window > 0 {
			// The same frame-delay contract lets the sequential kernel's
			// local run-ahead lane absorb instruction bursts past other
			// motes' lock-step schedules (see Sim.SetLookahead).
			seq.SetLookahead(window)
		}
		s = seq
	}

	medium := radio.NewMedium(s, topo, params)
	trace := &Trace{}

	d := &Deployment{
		Sim:     s,
		Medium:  medium,
		Trace:   trace,
		nodes:   make(map[topology.Location]*Node, len(spec.Layout.Nodes)+1),
		layout:  spec.Layout,
		spec:    spec,
		workers: workers,
		tracker: newAgentTracker(),
	}

	// One environment per shard for the motes (separately allocated: their
	// scratch is written per instruction by different workers), and one
	// for the base station, a laptop: effectively unconstrained.
	envs := make([]*shardEnv, s.Shards())
	for i := range envs {
		envs[i] = &shardEnv{cfg: spec.Node.withDefaults(), trace: trace, tracker: d.tracker}
	}
	baseEnv := *envs[0]
	baseEnv.cfg.MaxAgents = 64
	baseEnv.cfg.CodeBlocks = 512
	baseEnv.cfg.ArenaBytes = 16 * 1024
	baseEnv.cfg.RegistryBytes = 8 * 1024
	baseEnv.cfg.RegistryMax = 128

	base, err := newNode(s.Context(sim.Key2D(baseLoc.X, baseLoc.Y)), medium, baseLoc, 0, nil, &baseEnv)
	if err != nil {
		return nil, fmt.Errorf("core: base station: %w", err)
	}
	d.Base = base
	d.nodes[baseLoc] = base

	idx := uint8(1)
	for _, loc := range spec.Layout.Nodes {
		board := sensor.NewBoard(loc, spec.Field, sensor.DefaultSensors()...)
		ctx := s.Context(sim.Key2D(loc.X, loc.Y))
		n, err := newNode(ctx, medium, loc, idx, board, envs[ctx.Shard()])
		if err != nil {
			return nil, fmt.Errorf("core: node %v: %w", loc, err)
		}
		if spec.Energy != nil {
			n.SetEnergy(*spec.Energy)
		}
		if spec.Replication != nil {
			// Peer choice draws from a per-node stream keyed exactly like
			// the node's scheduling context, so gossip is independent of
			// the worker count and of every other random consumer.
			n.EnableReplication(*spec.Replication,
				sim.Stream(spec.Seed, saltReplica, uint64(sim.Key2D(loc.X, loc.Y))))
		}
		d.nodes[loc] = n
		idx++
	}
	return d, nil
}

// Replication returns the deployment's replication config with defaults
// resolved, or nil when replication is disabled.
func (d *Deployment) Replication() *Replication {
	if d.spec.Replication == nil {
		return nil
	}
	r := d.spec.Replication.withDefaults()
	return &r
}

// Workers returns the effective parallelism of the deployment's executor:
// 1 for the sequential kernel, the shard count otherwise.
func (d *Deployment) Workers() int { return d.workers }

// NowAt returns the virtual clock of the node at loc — exact even while a
// parallel run is in flight, where the executor-wide clock is only
// barrier-accurate. Unknown locations fall back to the executor clock.
func (d *Deployment) NowAt(loc topology.Location) time.Duration {
	if n := d.nodes[loc]; n != nil {
		return n.Now()
	}
	return d.Sim.Now()
}

// Layout returns the deployment's layout.
func (d *Deployment) Layout() topology.Layout { return d.layout }

// Field returns the sensor field driving this deployment's readings
// (nil when all sensors read 0).
func (d *Deployment) Field() sensor.Field { return d.spec.Field }

// Locations returns the mote locations in layout order (excluding the
// base station).
func (d *Deployment) Locations() []topology.Location {
	return append([]topology.Location(nil), d.layout.Nodes...)
}

// Start begins beaconing on every node. Each node's beacon offset draws
// from its own per-node stream, so the order is immaterial; location order
// is kept for tidiness.
func (d *Deployment) Start() {
	for _, n := range d.Nodes() {
		n.Start()
	}
}

// WarmUpSpan is how long neighbor discovery takes to settle: two and a
// half of the motes' beacon periods, long enough for every acquaintance
// list to fill.
func (d *Deployment) WarmUpSpan() time.Duration {
	period := d.spec.Node.Network.BeaconEvery
	if period <= 0 {
		period = network.DefaultBeaconEvery
	}
	return 2*period + period/2
}

// WarmUp starts the network and runs for WarmUpSpan.
func (d *Deployment) WarmUp() error {
	d.Start()
	return d.Sim.Run(d.Sim.Now() + d.WarmUpSpan())
}

// Node returns the mote at loc, or nil.
func (d *Deployment) Node(loc topology.Location) *Node { return d.nodes[loc] }

// Nodes returns all nodes (including the base) sorted by location.
func (d *Deployment) Nodes() []*Node {
	out := make([]*Node, 0, len(d.nodes))
	//lint:maprange collected values are sorted by location below
	for _, n := range d.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].loc.Y != out[j].loc.Y {
			return out[i].loc.Y < out[j].loc.Y
		}
		return out[i].loc.X < out[j].loc.X
	})
	return out
}

// Motes returns the grid nodes without the base station.
func (d *Deployment) Motes() []*Node {
	var out []*Node
	for _, n := range d.Nodes() {
		if n != d.Base {
			out = append(out, n)
		}
	}
	return out
}

// TotalAgents counts live agents across the network, including agents
// mid-handoff that are reserved on a receiver but not yet instantiated, so
// the count never dips to zero while an agent is in flight.
func (d *Deployment) TotalAgents() int {
	total := 0
	//lint:maprange integer summation is commutative
	for _, n := range d.nodes {
		total += len(n.agents) + n.reserve
	}
	return total
}

// TotalStats sums the per-node middleware counters across the network
// (including the base station).
func (d *Deployment) TotalStats() NodeStats {
	var t NodeStats
	//lint:maprange counter summation is commutative
	for _, n := range d.nodes {
		s := n.stats
		t.InstrExecuted += s.InstrExecuted
		t.AgentsHosted += s.AgentsHosted
		t.AgentsHalted += s.AgentsHalted
		t.AgentsDied += s.AgentsDied
		t.MigrationsOut += s.MigrationsOut
		t.MigrationsOK += s.MigrationsOK
		t.MigrationsFail += s.MigrationsFail
		t.RemoteInitiated += s.RemoteInitiated
		t.RemoteOK += s.RemoteOK
		t.RemoteFail += s.RemoteFail
		t.ReactionsFired += s.ReactionsFired
		t.FramesMissed += s.FramesMissed
		t.EnergyDeaths += s.EnergyDeaths
		t.TuplesReplicated += s.TuplesReplicated
		t.TuplesRecovered += s.TuplesRecovered
		t.DigestsSent += s.DigestsSent
		t.DigestsSuppressed += s.DigestsSuppressed
	}
	return t
}
