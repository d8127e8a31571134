package agilla

import (
	"fmt"

	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/transport"
)

// RadioParams configures the radio latency/loss model. The default is the
// calibrated lossy CC1000 model that regenerates the paper's Figures
// 9-11; WithReliableRadio selects its zero-loss variant.
type RadioParams = radio.Params

// Replication configures the gossip CRDT replication layer: each mote's
// tuple space doubles as a replicated two-phase set synchronized to K
// radio neighbors by anti-entropy gossip every Period, and MaxEntries
// caps each mote's replica store. Zero fields select defaults (K=2,
// Period=500ms, MaxEntries=128, QuiescentEvery=8). See WithReplication
// and the README's "Replication" section.
type Replication = core.Replication

// settings is the resolved configuration behind New.
type settings struct {
	topo        Topology
	seed        int64
	radio       *radio.Params
	field       Field
	node        NodeConfig
	energy      *EnergyModel
	workers     int
	replication *core.Replication
	admission   *float64
	bridge      *BridgeConfig
}

// Option configures New.
type Option func(*settings)

// WithTopology selects the deployment layout. The default is the paper's
// 5×5 grid.
func WithTopology(t Topology) Option { return func(s *settings) { s.topo = t } }

// WithSeed sets the seed driving all randomness — radio loss, beacon
// offsets, and randomized topology placement. Runs are reproducible per
// seed.
func WithSeed(seed int64) Option { return func(s *settings) { s.seed = seed } }

// WithRadio selects the radio latency/loss model.
func WithRadio(p RadioParams) Option {
	return func(s *settings) { cp := p; s.radio = &cp }
}

// WithReliableRadio selects a zero-loss channel with CC1000 timing; useful
// for tests and latency measurements that should not be confounded by
// loss.
func WithReliableRadio() Option { return WithRadio(radio.ZeroLoss()) }

// WithField drives sensor readings over space and time (default:
// everything reads 0).
func WithField(f Field) Option { return func(s *settings) { s.field = f } }

// WithNodeConfig overrides per-mote middleware budgets and protocol
// timers; zero fields keep the paper's defaults from §3.2.
func WithNodeConfig(cfg NodeConfig) Option {
	return func(s *settings) { s.node = cfg }
}

// WithEnergy gives every mote a battery under the given model: joule
// costs per VM instruction, radio send/receive, and sensor sample, plus
// idle drain. A mote whose battery empties dies exactly there
// (EventEnergyExhausted then EventNodeDied) and the network routes around
// it; ReviveAt boots it with fresh cells. The base station is
// mains powered. Start from DefaultEnergyModel and adjust CapacityJ to
// taste.
func WithEnergy(m EnergyModel) Option {
	return func(s *settings) { cp := m; s.energy = &cp }
}

// WithAdmissionBudget turns on static admission control in Launch: every
// program is run through the dataflow and energy analysis
// (program.Analyze) with the deployment's energy calibration, and agents
// the analysis cannot certify are rejected with ErrAdmission before any
// radio traffic is spent on them. Rejected are programs with error-level
// findings (guaranteed stack faults, type mismatches, reads of
// never-written heap slots), programs with no finite per-burst energy
// bound, and — when budgetJ > 0 — programs whose bound exceeds budgetJ
// joules per burst. A budgetJ of 0 (or negative) rejects only uncertifiable
// programs without capping the bound.
//
// The calibration follows WithEnergy's model when one is set, else
// DefaultEnergyModel; only the per-instruction, send, and sense costs
// enter the static bound.
func WithAdmissionBudget(budgetJ float64) Option {
	return func(s *settings) { s.admission = &budgetJ }
}

// WithReplication turns on the gossip CRDT replication layer: every mote
// gossips its tuple-space replica to k radio neighbors each period, so a
// tuple survives its node's death, a remote rrdp/rinp can be answered
// from any mote's replica when the arena misses, and a recovered mote
// gets its own tuples streamed back by its neighbors (EventTupleRecovered
// events). Zero fields of r select the defaults (see Replication), so
// Replication{} gossips to k=2 neighbors every 500ms. Gossip frames cost
// energy under WithEnergy like all other radio traffic.
func WithReplication(r Replication) Option {
	return func(s *settings) { cp := r; s.replication = &cp }
}

// WithWorkers runs the simulation kernel on n parallel workers. The
// deployment is partitioned into n spatial shards that execute
// concurrently inside time windows bounded by the radio's minimum frame
// delay, with cross-shard frames exchanged at window barriers — so the
// schedule every node observes is event-for-event identical to the
// default one-worker run for the same seed, while large deployments use
// all n cores. Values of 0 or 1 run the kernel on one shard, inline on
// the calling goroutine.
//
// Two caveats. RunUntil and Scenario.Until predicates are evaluated at
// window barriers (roughly every 21 ms of virtual time under the default
// radio), not after every event, so predicate-bounded runs may advance up
// to one window past the triggering instant; time-bounded runs are exact.
// And the Events channel may interleave events from concurrently
// executing nodes in nondeterministic order — see Events.
func WithWorkers(n int) Option { return func(s *settings) { s.workers = n } }

// New builds a deployment from functional options. With no options it
// builds the paper's testbed: a 5×5 MICA2 grid with the calibrated lossy
// CC1000 model, a base station at (0,0) bridged to the gateway mote
// (1,1), and per-node budgets from §3.2 (4 agents, 440 B instruction
// memory, 600 B tuple space, 400 B reaction registry).
func New(opts ...Option) (*Network, error) {
	var s settings
	for _, opt := range opts {
		opt(&s)
	}
	if s.topo.realize == nil {
		// No topology given, or the zero Topology: both mean "the
		// default testbed".
		s.topo = defaultTopology()
	}
	layout, err := s.topo.realize(s.seed)
	if err != nil {
		return nil, fmt.Errorf("agilla: %w", err)
	}
	// Check the whole shared field, before a bridge prunes it to this
	// process's share. An empty layout is left to the deployment's own
	// "no nodes" error.
	if len(layout.Nodes) > 0 && !layout.IsConnected() {
		return nil, fmt.Errorf("%w: %v leaves some motes unreachable; raise the radio range or density, or probe seeds with Topology.Connected",
			ErrDisconnected, s.topo)
	}
	spec := core.DeploymentSpec{
		Layout:      layout,
		Seed:        s.seed,
		Radio:       s.radio,
		Node:        s.node,
		Field:       s.field,
		Energy:      s.energy,
		Workers:     s.workers,
		Replication: s.replication,
	}
	var peers map[Location]transport.Addr
	if s.bridge != nil {
		pruned, p, baseLoc, err := planBridge(layout, s.bridge)
		if err != nil {
			return nil, err
		}
		spec.Layout, peers = pruned, p
		bl := baseLoc
		spec.BaseLoc = &bl
	}
	d, err := core.NewDeployment(spec)
	if err != nil {
		return nil, fmt.Errorf("agilla: %w", err)
	}
	nw := &Network{d: d}
	if s.bridge != nil {
		tr, err := transport.Open(transport.Addr(s.bridge.Listen))
		if err != nil {
			return nil, fmt.Errorf("agilla: %w", err)
		}
		local := append(d.Locations(), *spec.BaseLoc)
		br, err := transport.NewBridge(tr, d.Medium, local, peers)
		if err != nil {
			return nil, fmt.Errorf("agilla: %w", err)
		}
		nw.bridge = br
		nw.quantum = s.bridge.Quantum
		if nw.quantum <= 0 {
			nw.quantum = bridgeQuantumDefault
		}
		nw.idle = defaultBridgeIdle
	}
	if s.admission != nil {
		model := core.DefaultEnergyModel()
		if s.energy != nil {
			model = *s.energy
		}
		nw.admission = &admission{budgetJ: *s.admission, costs: model.VMCosts()}
	}
	return nw, nil
}
