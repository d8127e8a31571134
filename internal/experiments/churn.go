package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/wire"
)

// The churn experiment exercises the dynamic-world subsystem end to end:
// square grids under a scripted kill/revive/move schedule with the energy
// model active, every mote running a sensing loop and a few agents
// commuting across the failure region. For each configuration it reports
// the world census (kills, revives, moves, energy deaths), how the agent
// population fared, and a state hash over every node's final counters —
// byte-identical across worker counts by the determinism guarantee, which
// is what the CI smoke job asserts. The wall-clock columns benchmark the
// kernel under churn.
//
// On top of the census, every mote publishes one marker tuple at t=0 and
// the sweep measures what churn does to the data: TupleSurvival is the
// fraction of markers still readable anywhere at the end of the run, and
// the remote-probe columns report base-station rrdp lookups for the
// killed motes' markers against a surviving mote mid-outage. Each
// configuration runs twice, without and with the gossip replication layer
// (Replication column), so the sweep quantifies exactly what replication
// buys under the same seed: dead motes' markers stay readable from
// replicas and stream back to revived originators.

// ChurnRow is one (grid, workers, replication) measurement. All fields
// except the wall-clock ones are deterministic per seed and identical
// across worker counts.
type ChurnRow struct {
	Scenario          string  `json:"scenario"`
	Nodes             int     `json:"nodes"`
	Workers           int     `json:"workers"`
	Replication       bool    `json:"replication"`
	Events            uint64  `json:"events"`
	Kills             uint64  `json:"kills"`
	Revives           uint64  `json:"revives"`
	Moves             uint64  `json:"moves"`
	EnergyDeaths      uint64  `json:"energy_deaths"`
	AgentsDied        uint64  `json:"agents_died"`
	MigFails          uint64  `json:"migration_fails"`
	FramesMissed      uint64  `json:"frames_missed"`
	EnergyUsedJ       float64 `json:"energy_used_j"`
	RemoteProbes      int     `json:"remote_probes"`
	RemoteProbesOK    int     `json:"remote_probes_ok"`
	RemoteOKRate      float64 `json:"remote_ok_rate"`
	TupleSurvival     float64 `json:"tuple_survival"`
	TuplesReplicated  uint64  `json:"tuples_replicated"`
	TuplesRecovered   uint64  `json:"tuples_recovered"`
	DigestsSent       uint64  `json:"digests_sent"`
	DigestsSuppressed uint64  `json:"digests_suppressed"`
	// SuppressionSavedJ is the energy the quiescent-store digest
	// suppression saved: the same workload re-run with suppression
	// disabled (QuiescentEvery: 1) drains this many more joules. Both
	// measurement runs use uncapped batteries so the figure is pure
	// gossip airtime, not clipped by battery exhaustion. Zero on
	// baseline (replication-off) rows.
	SuppressionSavedJ float64 `json:"gossip_suppression_saved_j"`
	Hash              string  `json:"hash"`
	VirtualSecs       float64 `json:"virtual_secs"`
	WallSecs          float64 `json:"wall_secs"`
	EventsPerSec      float64 `json:"events_per_sec"`
	Speedup           float64 `json:"speedup"`
}

// ChurnResult is the full sweep.
type ChurnResult struct {
	Rows []ChurnRow
}

// JSON renders the rows as the machine-readable BENCH_churn.json schema.
func (r *ChurnResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r.Rows, "", "  ")
}

func (r *ChurnResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dynamic world: agent, data, and kernel behavior under churn + mobility + energy\n")
	fmt.Fprintf(&b, "%-12s %5s %7s %4s %10s %5s %7s %7s %9s %6s %6s %9s %8s  %s\n",
		"scenario", "nodes", "workers", "repl", "events", "kill", "revive", "enrgy†", "agt-died", "r-ok", "surv", "saved(J)", "wall(s)", "hash")
	for _, row := range r.Rows {
		repl := "off"
		if row.Replication {
			repl = "on"
		}
		fmt.Fprintf(&b, "%-12s %5d %7d %4s %10d %5d %7d %7d %9d %6.2f %6.2f %9.3f %8.2f  %s\n",
			row.Scenario, row.Nodes, row.Workers, repl, row.Events,
			row.Kills, row.Revives, row.EnergyDeaths,
			row.AgentsDied, row.RemoteOKRate, row.TupleSurvival, row.SuppressionSavedJ, row.WallSecs, row.Hash)
	}
	b.WriteString("† battery exhaustions. r-ok: mid-outage remote lookups of dead motes' markers answered OK.\n")
	b.WriteString("surv: fraction of t=0 marker tuples readable anywhere at the end.\n")
	b.WriteString("saved(J): energy the quiescent-store digest suppression saved vs. gossiping every tick.\n")
	b.WriteString("Deterministic columns (everything but wall) must not vary with workers.")
	return b.String()
}

// Churn runs the dynamic-world sweep: for each grid size, replication off
// and then on, one run per worker count in {1, 2, 4, ...} up to
// cfg.Workers.
func Churn(cfg Config) (*ChurnResult, error) {
	cfg = cfg.withDefaults()
	sizes := []int{6, 10}
	virtual := 40 * time.Second
	if cfg.Quick {
		sizes = []int{6}
		virtual = 15 * time.Second
	}
	res := &ChurnResult{}
	for _, g := range sizes {
		for _, repl := range []bool{false, true} {
			rows, err := sweepWorkers(fmt.Sprintf("churn %dx%d repl=%v", g, g, repl), cfg.Workers, func(w int) (ChurnRow, error) {
				return churnRun(g, w, virtual, cfg.Seed, repl, churnOpts{})
			})
			if err != nil {
				return nil, err
			}
			if repl {
				// Measure what digest suppression saves: the same
				// workload with suppression on vs. off, batteries
				// uncapped so the delta is pure gossip airtime (the
				// provisioned rows are battery-limited, which would clip
				// it). One worker only — the delta is deterministic, so
				// every worker row of this configuration carries the
				// same value.
				quietU, err := churnRun(g, 1, virtual, cfg.Seed, repl, churnOpts{uncapped: true})
				if err != nil {
					return nil, fmt.Errorf("churn %dx%d uncapped repl=%v: %w", g, g, repl, err)
				}
				noisyU, err := churnRun(g, 1, virtual, cfg.Seed, repl, churnOpts{uncapped: true, quiescentEvery: 1})
				if err != nil {
					return nil, fmt.Errorf("churn %dx%d no-suppression repl=%v: %w", g, g, repl, err)
				}
				for i := range rows {
					rows[i].SuppressionSavedJ = noisyU.EnergyUsedJ - quietU.EnergyUsedJ
				}
			}
			res.Rows = append(res.Rows, rows...)
		}
	}
	return res, nil
}

// rate is the sweepWorkers view of a row.
func (r *ChurnRow) rate() (float64, *float64) { return r.EventsPerSec, &r.Speedup }

// marker is the tuple mote number idx publishes at t=0; the survival and
// probe columns track these through the churn.
func marker(idx int) tuplespace.Tuple {
	return tuplespace.T(tuplespace.Str("sv"), tuplespace.Int(int16(idx)))
}

func markerTemplate(idx int) tuplespace.Template {
	return tuplespace.Tmpl(tuplespace.Str("sv"), tuplespace.Int(int16(idx)))
}

// markerReadable reports whether any live node can produce the marker:
// from its arena, or — with replication — from its replica store, the
// same sources a remote rrdp consults.
func markerReadable(d *core.Deployment, idx int) bool {
	p := markerTemplate(idx)
	for _, n := range d.Motes() {
		if n.Life() != core.NodeUp {
			continue
		}
		if _, ok := n.Space().Rdp(p); ok {
			return true
		}
		for _, e := range n.ReplicaLive() {
			if p.Matches(e.Tuple) {
				return true
			}
		}
	}
	return false
}

// churnOpts tweaks one churn run: quiescentEvery overrides the digest
// suppression threshold (0 = the default, 1 = suppression off), uncapped
// disables battery exhaustion for the suppression-savings measurement.
type churnOpts struct {
	quiescentEvery int
	uncapped       bool
}

// churnRun executes one grid at one worker count under the scripted
// world schedule.
func churnRun(g, workers int, virtual time.Duration, seed int64, repl bool, opts churnOpts) (ChurnRow, error) {
	energy := core.DefaultEnergyModel()
	// A steadily beaconing, sensing mote drains roughly 0.5 mJ/s under
	// this workload; size the battery so exhaustion lands around three
	// quarters of the run, whatever its length. Anti-entropy gossip
	// multiplies the radio traffic many-fold — and its digest frames carry
	// one origin summary per mote, so per-mote gossip drain grows with the
	// grid — so the replication rows get a cell provisioned ∝ node count
	// (calibrated at 36 motes for the quiescence-suppressed gossip rate).
	// The provision is affine in run length because suppressed drain is
	// front-loaded: the convergence burst transmits every tick until the
	// stores quiesce, then the rate plummets. It is also sized so the
	// probe-serving mote — the hottest drainer, sitting beside the base
	// gateway — outlives the mid-outage probes, while the gateway-adjacent
	// hot spots still exhaust before the end: deaths happen, probes
	// answer, and the EnergyUsedJ column reports replication's true
	// energy price.
	energy.CapacityJ = 4e-4 * virtual.Seconds()
	if repl {
		energy.CapacityJ = (1.4e-1 + 4e-3*virtual.Seconds()) * float64(g*g) / 36
	}
	if opts.uncapped {
		// Effectively infinite: the savings measurement must not be
		// clipped by exhaustion.
		energy.CapacityJ = 1e6
	}
	spec := core.DeploymentSpec{
		Layout:  topology.GridLayout(g, g),
		Seed:    seed,
		Workers: workers,
		Energy:  &energy,
	}
	if repl {
		// Defaults: k=2, 500ms, digest suppression after 8 quiet ticks;
		// quiescentEvery=1 disables suppression for the savings baseline.
		spec.Replication = &core.Replication{QuiescentEvery: opts.quiescentEvery}
	}
	d, err := core.NewDeployment(spec)
	if err != nil {
		return ChurnRow{}, err
	}
	// One sensing loop per mote plus commuters crossing the churn region.
	code := agents.Monitor(2)
	for _, n := range d.Motes() {
		if _, err := n.CreateAgent(code); err != nil {
			return ChurnRow{}, err
		}
	}
	far := topology.Loc(int16(g), int16(g))
	commuter := asm.MustAssemble(agents.SmoveRoundTripSrc(far, topology.Loc(1, 1)))
	if _, err := d.Base.InjectAgent(commuter, topology.Loc(1, 1)); err != nil {
		return ChurnRow{}, err
	}

	// The deterministic world schedule: kill a diagonal band mid-run,
	// revive half of it, and bounce one mote across the strip partition
	// (column 1 -> off-grid column g+1 and back).
	mid := virtual / 2
	var killed []topology.Location
	for i := 1; i <= g; i += 2 {
		loc := topology.Loc(int16(i), int16((i%g)+1))
		d.KillAt(mid, loc)
		killed = append(killed, loc)
	}
	for i := 1; i <= g; i += 4 {
		d.ReviveAt(mid+virtual/4, topology.Loc(int16(i), int16((i%g)+1)))
	}
	d.MoveAt(virtual/4, topology.Loc(1, int16(g/2)), topology.Loc(int16(g+1), int16(g/2)))
	d.MoveAt(3*virtual/4, topology.Loc(int16(g+1), int16(g/2)), topology.Loc(1, int16(g/2)))

	// Every mote publishes its marker at t=0; mid-outage, the base station
	// asks a never-killed mote for each dead mote's marker over the air.
	// Without replication the probes must miss (the only copy died with
	// its mote); with it, the serving mote's replica store answers.
	markerIdx := make(map[topology.Location]int)
	for idx, n := range d.Motes() {
		markerIdx[n.Loc()] = idx
		if err := n.Space().Out(marker(idx)); err != nil {
			return ChurnRow{}, err
		}
	}
	safe := topology.Loc(2, 1) // even column: never killed, never moved
	probes, probesOK := 0, 0
	for _, loc := range killed {
		p := markerTemplate(markerIdx[loc])
		d.Sim.ScheduleWorldAt(mid+virtual/8, func() {
			d.Base.RemoteOp(wire.OpRrdp, safe, tuplespace.Tuple{}, p, func(r wire.RemoteReply, err error) {
				probes++
				if err == nil && r.OK {
					probesOK++
				}
			})
		})
	}

	d.Start()
	start := time.Now()
	if err := d.Sim.Run(virtual); err != nil {
		return ChurnRow{}, err
	}
	wall := time.Since(start).Seconds()

	found := 0
	for idx := range d.Motes() {
		if markerReadable(d, idx) {
			found++
		}
	}

	stats := d.TotalStats()
	world := d.WorldStats()
	row := ChurnRow{
		Scenario:          fmt.Sprintf("grid %dx%d", g, g),
		Nodes:             g * g,
		Workers:           d.Workers(),
		Replication:       repl,
		Events:            d.Sim.Executed(),
		Kills:             world.Kills,
		Revives:           world.Revives,
		Moves:             world.Moves,
		EnergyDeaths:      stats.EnergyDeaths,
		AgentsDied:        stats.AgentsDied,
		MigFails:          stats.MigrationsFail,
		FramesMissed:      stats.FramesMissed,
		EnergyUsedJ:       d.EnergyUsedJ(),
		RemoteProbes:      probes,
		RemoteProbesOK:    probesOK,
		TupleSurvival:     float64(found) / float64(g*g),
		TuplesReplicated:  stats.TuplesReplicated,
		TuplesRecovered:   stats.TuplesRecovered,
		DigestsSent:       stats.DigestsSent,
		DigestsSuppressed: stats.DigestsSuppressed,
		Hash:              fmt.Sprintf("%016x", scaleHash(d)),
		VirtualSecs:       virtual.Seconds(),
		WallSecs:          wall,
	}
	if probes > 0 {
		row.RemoteOKRate = float64(probesOK) / float64(probes)
	}
	if wall > 0 {
		row.EventsPerSec = float64(row.Events) / wall
	}
	return row, nil
}
