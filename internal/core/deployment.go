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
	if dest == n.loc {
		return n.CreateAgent(code)
	}
	rec, err := n.admitNew(code)
	if err != nil {
		return 0, err
	}
	n.depart(rec, wire.MigInject, dest, true)
	return rec.agent.ID, nil
}

// RemoteOp lets the base station (or a test) perform a remote tuple space
// operation without running an agent: the Java base-station application
// "allows a user to interact with the WSN by injecting agents and
// performing remote tuple space operations" (§3.1). The callback receives
// the outcome; it is invoked synchronously for local destinations. On
// timeout the callback's error is ErrRemoteTimeout and the reply's OK is
// false. The reply's tuple is valid only during the callback: it is
// decoded into the shard's scratch, so a callback copies what it keeps.
func (n *Node) RemoteOp(op wire.RemoteOp, dest topology.Location, t tuplespace.Tuple, p tuplespace.Template, done func(wire.RemoteReply, error)) {
	pr := n.newRemote(op, dest, t, p)
	pr.done = done
	n.beginRemote(pr)
}

// Deployment is a full Agilla network: motes placed by a Layout, the
// shared radio medium, and a base station bridged to the layout's gateway
// mote. The paper's 25-mote testbed with its laptop (Figure 3) is the grid
// instance; line, ring, random-disk, and custom layouts run the identical
// middleware over different geometry.
type Deployment struct {
	Sim    *sim.Parallel
	Medium *radio.Medium
	Base   *Node
	Trace  *Trace

	order  []*Node // the base station, then the motes in dispatch order: the order they were built
	layout topology.Layout
	spec   DeploymentSpec
	world  WorldStats
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
	// Field drives sensor readings (nil: all sensors read 0).
	Field sensor.Field
	// Energy attaches a battery with the given model to every mote (the
	// base station is mains powered). Nil disables energy accounting.
	Energy *EnergyModel
	// Replication attaches the gossip CRDT layer to every mote (the base
	// station holds no replicas). Nil disables replication.
	Replication *Replication
	// Workers is the executor's shard count: values above 1 run the
	// deployment on that many spatial shards executing in parallel,
	// windowed by the radio's minimum frame delay; 0 or 1 run one shard
	// inline. Every count produces the identical per-node schedule for
	// the same seed (see internal/sim).
	Workers int
}

// NewDeployment builds a network from a layout: one mote per layout node,
// the shared medium over the layout's links, and a base station bridged
// to the gateway. All nodes share one Trace.
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
	topo := topology.NewWithBase(spec.Layout.Links, baseLoc, spec.Layout.Gateway)

	// All cross-node interaction flows through radio frames, so the
	// minimum frame delay is a sound conservative lookahead whatever the
	// topology: it windows the shards, and even on one shard it lets an
	// engine's step chain run in place past other motes' lock-step
	// schedules (see sim.Ctx.RunLocal).
	workers := min(max(spec.Workers, 1), len(spec.Layout.Nodes)+1)
	window := params.FrameDelay(0)
	if window <= 0 {
		workers, window = 1, 0 // degenerate radio timing: no safe lookahead
	}
	var shardOf func(sim.ContextKey) int // one shard: every context on it
	if workers > 1 {
		locs := append([]topology.Location{baseLoc}, spec.Layout.Nodes...)
		strip := topology.PartitionStrips(locs, workers)
		byKey := make(map[sim.ContextKey]int, len(locs))
		for _, loc := range locs {
			byKey[sim.Key2D(loc.X, loc.Y)] = strip[loc]
		}
		shardOf = func(k sim.ContextKey) int {
			return byKey[k] // unknown keys (harness contexts) ride shard 0
		}
	}
	s := sim.NewParallel(spec.Seed, workers, window, shardOf)

	medium := radio.NewMedium(s, topo, params)
	trace := &Trace{}

	d := &Deployment{
		Sim:    s,
		Medium: medium,
		Trace:  trace,
		order:  make([]*Node, 0, len(spec.Layout.Nodes)+1),
		layout: spec.Layout,
		spec:   spec,
	}

	// One environment per shard for the motes (separately allocated: their
	// scratch is written per instruction by different workers), and one
	// for the base station, a laptop: effectively unconstrained.
	nodeCfg := spec.Node.withDefaults()
	envs := make([]*shardEnv, s.Shards())
	for i := range envs {
		envs[i] = &shardEnv{cfg: nodeCfg, trace: trace, net: network.Shard{Config: nodeCfg.Network, Medium: medium}}
	}
	baseEnv := *envs[0]
	baseEnv.cfg.MaxAgents = 64
	baseEnv.cfg.CodeBlocks = 512
	baseEnv.cfg.ArenaBytes = 16 * 1024
	baseEnv.cfg.RegistryBytes = 8 * 1024
	baseEnv.cfg.RegistryMax = 128

	base, err := newNode(s.Context(sim.Key2D(baseLoc.X, baseLoc.Y)), baseLoc, 0, nil, &baseEnv)
	if err != nil {
		return nil, fmt.Errorf("core: base station: %w", err)
	}
	d.Base = base
	d.order = append(d.order, base)

	// Motes are built in the order each shard dispatches them, ascending
	// context key, so consecutive allocations of every per-mote type (the
	// context, the board, the node with its arena) sit side by side in
	// the order a same-instant wake cluster pops. A mote's node index
	// still comes from its layout position: agent IDs do not move.
	for _, i := range dispatchOrder(spec.Layout.Nodes) {
		loc := spec.Layout.Nodes[i]
		board := sensor.NewBoard(loc, spec.Field, sensor.DefaultSensors()...)
		ctx := s.Context(sim.Key2D(loc.X, loc.Y))
		n, err := newNode(ctx, loc, uint8(i+1), board, envs[ctx.Shard()])
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
		d.order = append(d.order, n)
	}
	return d, nil
}

// dispatchOrder returns the indices of locs sorted by their scheduling
// context keys (sim.Key2D: x first, then y) — the order in which a shard
// pops a cluster of same-instant wake-ups.
func dispatchOrder(locs []topology.Location) []int {
	order := make([]int, len(locs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := locs[order[a]], locs[order[b]]
		return sim.Key2D(la.X, la.Y) < sim.Key2D(lb.X, lb.Y)
	})
	return order
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
// its shard count, 1 when the kernel runs inline on one shard.
func (d *Deployment) Workers() int { return d.Sim.Shards() }

// NowAt returns the virtual clock of the node at loc — exact even while a
// parallel run is in flight, where the executor-wide clock is only
// barrier-accurate. Unknown locations fall back to the executor clock.
func (d *Deployment) NowAt(loc topology.Location) time.Duration {
	if n := d.Node(loc); n != nil {
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
// from its own per-node stream, so the order is immaterial; the nodes are
// walked in the order they were built. A Start before any event has run
// first re-homes the agents created so far (see rehomeAgents).
func (d *Deployment) Start() {
	if d.Sim.Executed() == 0 {
		d.rehomeAgents()
	}
	for _, n := range d.order {
		n.Start()
	}
}

// rehomeAgents moves the agents created before the simulation first runs
// into per-shard slabs — one of records, one of vm.Agents, one of code
// bytes — filled in the order the nodes were built, which on every shard
// is the order a same-instant wake cluster pops. Consecutive wake-ups
// then touch consecutive records, agents and code, in whatever order the
// caller created the agents. Before the first event a created agent
// (AgentReady) is held only by its node's agent list and run ring, which
// are re-pointed, and has never bound its wake timer; an injected one is
// also held by its transfer (AgentMigrating) and stays where it is.
func (d *Deployment) rehomeAgents() {
	movable := func(rec *record) bool { return rec.state == AgentReady && !rec.wake.Bound() }
	agents, code := make([]int, d.Sim.Shards()), make([]int, d.Sim.Shards())
	for _, n := range d.order {
		for _, rec := range n.agents {
			if movable(rec) {
				agents[n.sim.Shard()]++
				code[n.sim.Shard()] += len(rec.agent.Code)
			}
		}
	}
	type slab struct {
		recs   []record
		agents []vm.Agent
		code   []byte
	}
	slabs := make([]slab, len(agents))
	for i := range slabs {
		slabs[i] = slab{make([]record, 0, agents[i]), make([]vm.Agent, 0, agents[i]), make([]byte, 0, code[i])}
	}
	for _, n := range d.order {
		s := &slabs[n.sim.Shard()]
		for i, old := range n.agents {
			if !movable(old) {
				continue
			}
			s.agents = append(s.agents, *old.agent)
			a := &s.agents[len(s.agents)-1]
			at := len(s.code)
			s.code = append(s.code, a.Code...)
			a.Code = s.code[at:len(s.code):len(s.code)] // full: a later append copies out
			s.recs = append(s.recs, *old)
			rec := &s.recs[len(s.recs)-1]
			rec.agent = a
			n.agents[i] = rec
			n.runq.Replace(old, rec)
		}
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

// Node returns the mote at loc, or nil: the node that holds the medium's
// port there, which a move hands over (radio.Medium.Move). A dead mote
// stays attached, its radio deaf in ReceiveFrame, so revival finds it.
func (d *Deployment) Node(loc topology.Location) *Node {
	n, _ := d.Medium.Holder(loc).(*Node)
	return n
}

// Nodes returns all nodes (including the base) sorted by location.
func (d *Deployment) Nodes() []*Node {
	out := append([]*Node(nil), d.order...)
	sort.Slice(out, func(i, j int) bool { return out[i].loc.Compare(out[j].loc) < 0 })
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
// mid-handoff whose inbound transfer holds a slot on a receiver but has not
// yet instantiated them, so the count never dips to zero while an agent is
// in flight.
func (d *Deployment) TotalAgents() int {
	total := 0
	for _, n := range d.order {
		total += n.slots()
	}
	return total
}

// TotalStats sums the per-node middleware counters across the network
// (including the base station).
func (d *Deployment) TotalStats() NodeStats {
	var t NodeStats
	for _, n := range d.order {
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
