package experiments

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"time"

	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
)

// The scale experiment benchmarks the simulation kernel itself rather
// than the middleware: square grids from 5×5 up to 100×100, every mote
// running a steady sensing-loop agent, executed once per worker count.
// For each configuration it reports raw event throughput (events per
// wall-clock second) and the speedup over one worker, plus a
// state hash over every node's final counters — byte-identical across
// worker counts by the determinism guarantee of the sharded executor,
// which is what the CI smoke job asserts.

// ScaleRow is one (grid, workers) measurement. The deterministic fields
// (Scenario, Nodes, Events, Instr, Frames, Hash, VirtualSecs) are
// identical for every worker count at the same seed; the wall-clock
// fields are the benchmark. Dispatched counts events actually popped
// from scheduler heaps: Events-Dispatched is the steps the engine ran in
// place, so Dispatched (and the InstrPerEvent ratio)
// legitimately varies with workers and must stay out of the cross-worker
// determinism diff.
type ScaleRow struct {
	Scenario      string  `json:"scenario"`
	Nodes         int     `json:"nodes"`
	Workers       int     `json:"workers"`
	Events        uint64  `json:"events"`
	Dispatched    uint64  `json:"dispatched"`
	Instr         uint64  `json:"instr"`
	Frames        uint64  `json:"frames"`
	Hash          string  `json:"hash"`
	VirtualSecs   float64 `json:"virtual_secs"`
	WallSecs      float64 `json:"wall_secs"`
	EventsPerSec  float64 `json:"events_per_sec"`
	InstrPerSec   float64 `json:"instr_per_sec"`
	InstrPerEvent float64 `json:"instr_per_event"`
	Speedup       float64 `json:"speedup"`
}

// ScaleResult is the full sweep.
type ScaleResult struct {
	Rows []ScaleRow
}

// JSON renders the rows as the machine-readable BENCH_scale.json schema.
func (r *ScaleResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r.Rows, "", "  ")
}

func (r *ScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Kernel scaling: events/sec by grid size and worker count\n")
	fmt.Fprintf(&b, "%-14s %7s %8s %12s %12s %12s %11s %10s %8s  %s\n",
		"scenario", "nodes", "workers", "events", "events/sec", "instr/sec", "instr/event", "wall(s)", "speedup", "hash")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %7d %8d %12d %12.0f %12.0f %11.2f %10.2f %7.2fx  %s\n",
			row.Scenario, row.Nodes, row.Workers, row.Events,
			row.EventsPerSec, row.InstrPerSec, row.InstrPerEvent, row.WallSecs, row.Speedup, row.Hash)
	}
	b.WriteString("(deterministic columns — events, hash — must not vary with workers)")
	return b.String()
}

// Scale runs the kernel scaling sweep: for each grid size, one run per
// worker count in {1, 2, 4, ...} up to cfg.Workers.
func Scale(cfg Config) (*ScaleResult, error) {
	cfg = cfg.withDefaults()
	sizes := []int{5, 10, 25, 50, 100}
	virtual := 10 * time.Second
	if cfg.Quick {
		sizes = []int{5, 10}
		virtual = 3 * time.Second
	}
	res := &ScaleResult{}
	for _, g := range sizes {
		rows, err := sweepWorkers(fmt.Sprintf("scale %dx%d", g, g), cfg.Workers, func(w int) (ScaleRow, error) {
			return scaleBest(g, w, virtual, cfg.Seed, cfg.Trials)
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, rows...)
	}
	if !cfg.Quick {
		// The 1000x1000 headline: a million motes, feasible only because
		// the engine chains instructions in place without per-
		// instruction heap events. One run, at the full worker count,
		// over a shortened virtual window.
		row, err := scaleBest(1000, cfg.Workers, time.Second, cfg.Seed, cfg.Trials)
		if err != nil {
			return nil, fmt.Errorf("scale 1000x1000 workers=%d: %w", cfg.Workers, err)
		}
		row.Speedup = 1 // a single run is its own baseline
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// rate is the sweepWorkers view of a row.
func (r *ScaleRow) rate() (float64, *float64) { return r.EventsPerSec, &r.Speedup }

// sweepWorkers runs the configuration label names at each worker count
// in {1, 2, 4, …} up to max, max itself included, and sets each row's
// speedup over the workers-1 row's events per second.
func sweepWorkers[R any, P interface {
	*R
	rate() (eventsPerSec float64, speedup *float64)
}](label string, max int, run func(workers int) (R, error)) ([]R, error) {
	workers := []int{1}
	for w := 2; w <= max; w *= 2 {
		workers = append(workers, w)
	}
	if last := workers[len(workers)-1]; last != max && max > 1 {
		workers = append(workers, max)
	}
	rows := make([]R, 0, len(workers))
	for _, w := range workers {
		row, err := run(w)
		if err != nil {
			return nil, fmt.Errorf("%s workers=%d: %w", label, w, err)
		}
		rows = append(rows, row)
	}
	if baseline, _ := P(&rows[0]).rate(); baseline > 0 {
		for i := range rows {
			eps, speedup := P(&rows[i]).rate()
			*speedup = eps / baseline
		}
	}
	return rows, nil
}

// scaleBest measures one configuration -trials times and keeps the run
// with the best wall clock: each trial builds a fresh deployment, so the
// minimum strips GC and OS-scheduler noise from the throughput columns
// without touching the deterministic ones — which must agree across
// trials (a free same-executor reproducibility check).
func scaleBest(g, workers int, virtual time.Duration, seed int64, trials int) (ScaleRow, error) {
	if trials < 1 {
		trials = 1
	}
	var best ScaleRow
	for t := 0; t < trials; t++ {
		// Settle the heap between runs so one row's garbage does not
		// tax the next measurement.
		runtime.GC()
		row, err := scaleRun(g, workers, virtual, seed)
		if err != nil {
			return ScaleRow{}, err
		}
		if t == 0 {
			best = row
			continue
		}
		if row.Hash != best.Hash || row.Events != best.Events {
			return ScaleRow{}, fmt.Errorf("trial %d diverged: events %d hash %s vs events %d hash %s",
				t, row.Events, row.Hash, best.Events, best.Hash)
		}
		if row.WallSecs < best.WallSecs {
			best = row
		}
	}
	return best, nil
}

// scaleRun executes one grid at one worker count and measures throughput.
func scaleRun(g, workers int, virtual time.Duration, seed int64) (ScaleRow, error) {
	d, err := core.NewDeployment(core.DeploymentSpec{
		Layout:  topology.GridLayout(g, g),
		Seed:    seed,
		Workers: workers,
	})
	if err != nil {
		return ScaleRow{}, err
	}
	// One sensing loop per mote: sample, sleep 2 ticks (250 ms), repeat.
	code := agents.Monitor(2)
	for _, n := range d.Motes() {
		if _, err := n.CreateAgent(code); err != nil {
			return ScaleRow{}, err
		}
	}
	d.Start()
	start := time.Now()
	if err := d.Sim.Run(virtual); err != nil {
		return ScaleRow{}, err
	}
	wall := time.Since(start).Seconds()

	stats := d.TotalStats()
	med := d.Medium.Stats()
	row := ScaleRow{
		Scenario:    fmt.Sprintf("grid %dx%d", g, g),
		Nodes:       g * g,
		Workers:     d.Workers(),
		Events:      d.Sim.Executed(),
		Dispatched:  d.Sim.Dispatched(),
		Instr:       stats.InstrExecuted,
		Frames:      med.Sent,
		Hash:        fmt.Sprintf("%016x", scaleHash(d)),
		VirtualSecs: virtual.Seconds(),
		WallSecs:    wall,
	}
	if wall > 0 {
		row.EventsPerSec = float64(row.Events) / wall
		row.InstrPerSec = float64(row.Instr) / wall
	}
	if row.Dispatched > 0 {
		row.InstrPerEvent = float64(row.Instr) / float64(row.Dispatched)
	}
	return row, nil
}

// scaleHash digests every node's final middleware counters plus the
// medium counters, in location order. Any scheduling divergence between
// executors shows up here before it would show up in aggregate counts.
func scaleHash(d *core.Deployment) uint64 {
	h := fnv.New64a()
	word := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, n := range d.Nodes() {
		loc := n.Loc()
		word(uint64(sim.Key2D(loc.X, loc.Y)))
		s := n.Stats()
		for _, v := range []uint64{
			s.InstrExecuted, s.AgentsHosted, s.AgentsHalted, s.AgentsDied,
			s.MigrationsOut, s.MigrationsOK, s.MigrationsFail,
			s.RemoteInitiated, s.RemoteOK, s.RemoteFail, s.ReactionsFired,
			s.TuplesReplicated, s.TuplesRecovered,
		} {
			word(v)
		}
		st := n.Net().Stats()
		word(st.BeaconsSent)
		word(uint64(n.Net().Acquaintances().Len()))
	}
	m := d.Medium.Stats()
	for _, v := range []uint64{m.Sent, m.Delivered, m.Dropped, m.NoRoute, m.Bytes, m.Links} {
		word(v)
	}
	return h.Sum64()
}
