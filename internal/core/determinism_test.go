package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
	"github.com/agilla-go/agilla/internal/wire"
)

// The parallel executor's contract is exact: for the same seed, every
// node must observe the same schedule the sequential executor produces —
// under the calibrated lossy radio, with multi-hop migrations, remote
// operations, and reactions in flight. These tests hash the full
// middleware event trace — (time, per-node sequence, node, kind, agent)
// for every trace hook firing — and require it byte-identical across
// executors, on grid, ring, and random-disk topologies and several seeds.

var update = flag.Bool("update", false, "rewrite testdata/determinism.golden")

// determinismGolden is testdata/determinism.golden, which pins the suite
// across commits as well: one line per workers-1 run, its scenario,
// layout and seed and then the trace hash, event count and counters the
// run measured. The executors are diffed against each other inside one
// run; the file catches a change that moves them all alike. Regenerate
// with
//
//	go test ./internal/core -run 'Deterministic|MatchesSequential' -update
const determinismGolden = "testdata/determinism.golden"

var golden struct {
	sync.Mutex
	lines map[string]string // run key -> what it measured
}

// checkGolden compares one run's measurements with its golden line, or
// with -update records them and rewrites the file.
func checkGolden(t *testing.T, key string, hash uint64, events int, stats NodeStats, exec Stats2, extra ...any) {
	t.Helper()
	got := fmt.Sprintf("hash=%016x events=%d stats=%+v exec=%v", hash, events, stats, exec)
	for _, x := range extra {
		got += fmt.Sprintf(" %+v", x)
	}
	golden.Lock()
	defer golden.Unlock()
	if golden.lines == nil {
		golden.lines = make(map[string]string)
		b, err := os.ReadFile(determinismGolden)
		if err != nil && !*update {
			t.Fatal(err)
		}
		for _, l := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			if k, v, ok := strings.Cut(l, " hash="); ok {
				golden.lines[k] = "hash=" + v
			}
		}
	}
	if *update {
		golden.lines[key] = got
		keys := make([]string, 0, len(golden.lines))
		for k := range golden.lines {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, golden.lines[k])
		}
		if err := os.WriteFile(determinismGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := golden.lines[key]; got != want {
		t.Errorf("%s: %s differs\n got: %s\nwant: %s", key, determinismGolden, got, want)
	}
}

// traceRecorder captures every middleware event with the reporting node's
// exact clock. The hooks fire concurrently under a parallel executor, so
// recording locks; per-node sequence numbers make the eventual sort
// total without imposing an order across concurrently executing nodes.
type traceRecorder struct {
	mu    sync.Mutex
	seq   map[topology.Location]int
	lines []traceLine
}

type traceLine struct {
	at   time.Duration
	node topology.Location
	seq  int
	desc string
}

func newTraceRecorder() *traceRecorder {
	return &traceRecorder{seq: make(map[topology.Location]int)}
}

func (r *traceRecorder) add(at time.Duration, node topology.Location, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq[node]++
	r.lines = append(r.lines, traceLine{at: at, node: node, seq: r.seq[node], desc: fmt.Sprintf(format, args...)})
}

// install wires the recorder into every hook of the deployment's trace.
func (r *traceRecorder) install(d *Deployment) {
	now := func(loc topology.Location) time.Duration { return d.NowAt(loc) }
	tr := d.Trace
	tr.AgentArrived = func(node topology.Location, id uint16, kind wire.MigKind, from topology.Location) {
		r.add(now(node), node, "arrived %d %v from %v", id, kind, from)
	}
	tr.AgentCloned = func(node topology.Location, parent, clone uint16) {
		r.add(now(node), node, "cloned %d from %d", clone, parent)
	}
	tr.AgentHalted = func(node topology.Location, id uint16) {
		r.add(now(node), node, "halted %d", id)
	}
	tr.AgentDied = func(node topology.Location, id uint16, err error) {
		r.add(now(node), node, "died %d %v", id, err)
	}
	tr.MigrationStarted = func(node topology.Location, id uint16, kind wire.MigKind, dest topology.Location) {
		r.add(now(node), node, "mig-start %d %v -> %v", id, kind, dest)
	}
	tr.MigrationDone = func(node topology.Location, id uint16, kind wire.MigKind, dest topology.Location, ok bool) {
		r.add(now(node), node, "mig-done %d %v -> %v %v", id, kind, dest, ok)
	}
	tr.RemoteDone = func(node topology.Location, id uint16, kind vm.RemoteKind, dest topology.Location, ok bool, elapsed time.Duration) {
		r.add(now(node), node, "remote %d %v -> %v %v %d", id, kind, dest, ok, elapsed)
	}
	tr.TupleOut = func(node topology.Location, t tuplespace.Tuple) {
		r.add(now(node), node, "out %v", t)
	}
	tr.ReactionFired = func(node topology.Location, id uint16, t tuplespace.Tuple) {
		r.add(now(node), node, "rxn %d %v", id, t)
	}
	tr.NodeDied = func(node topology.Location, cause DownCause) {
		r.add(now(node), node, "node-died %v", cause)
	}
	tr.NodeRecovered = func(node topology.Location) {
		r.add(now(node), node, "node-recovered")
	}
	tr.NodeMoved = func(from, to topology.Location) {
		// Attribute the move to the vacated location so the line lands in
		// the same per-node lane under both executors.
		r.add(now(to), from, "node-moved -> %v", to)
	}
	tr.EnergyExhausted = func(node topology.Location, usedJ float64) {
		r.add(now(node), node, "energy-exhausted %.9f", usedJ)
	}
	tr.ReplicaSynced = func(node, peer topology.Location, added, removed int) {
		r.add(now(node), node, "replica-synced from %v +%d -%d", peer, added, removed)
	}
	tr.TupleRecovered = func(node topology.Location, tu tuplespace.Tuple) {
		r.add(now(node), node, "tuple-recovered %v", tu)
	}
}

// hash renders the trace sorted by (time, node, per-node seq) and digests
// it. Per-node subsequences are already ordered; the sort only interleaves
// nodes, deterministically.
func (r *traceRecorder) hash() (uint64, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.lines, func(i, j int) bool {
		a, b := r.lines[i], r.lines[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.node != b.node {
			if a.node.Y != b.node.Y {
				return a.node.Y < b.node.Y
			}
			return a.node.X < b.node.X
		}
		return a.seq < b.seq
	})
	h := fnv.New64a()
	for _, l := range r.lines {
		fmt.Fprintf(h, "%d|%v|%d|%s\n", l.at, l.node, l.seq, l.desc)
	}
	return h.Sum64(), len(r.lines)
}

// reactorSrc registers a reaction on <"png"> tuples that lights the LEDs,
// then waits forever — reaction firings from remote routs exercise the
// registry under both executors.
const reactorSrc = `
	      pushn png
	      pushc 1
	      pushcl REACT
	      regrxn
	LOOP  pushcl 8
	      sleep
	      rjump LOOP
	REACT pop           // field count pushed by the firing
	      pop           // the "png" field
	      pushc 7
	      putled
	      jumps         // resume at the saved PC
`

// runDeterminismWorkload builds a deployment over the layout, runs a
// workload that exercises migration, remote ops, and reactions for 25
// virtual seconds, and returns the trace hash, trace length, and final
// counters.
func runDeterminismWorkload(t *testing.T, layout topology.Layout, seed int64, workers int, opts ...func(*DeploymentSpec)) (uint64, int, NodeStats, Stats2) {
	t.Helper()
	d, rec := tracedDeployment(t, layout, seed, workers, opts...)
	locs := d.Locations()
	far := locs[len(locs)-1]
	mid := locs[len(locs)/2]

	// Multi-hop round trips from the base, a remote rout toward a far
	// mote, and a reaction listener at the midpoint.
	roundTrip := asm.MustAssemble(agents.SmoveRoundTripSrc(far, d.Base.Loc()))
	if _, err := d.Base.InjectAgent(roundTrip, locs[0]); err != nil {
		t.Fatalf("inject: %v", err)
	}
	if _, err := d.Base.InjectAgent(asm.MustAssemble(agents.RoutSrc(mid)), locs[0]); err != nil {
		t.Fatalf("inject rout: %v", err)
	}
	if n := d.Node(mid); n != nil {
		if _, err := n.CreateAgent(asm.MustAssemble(reactorSrc)); err != nil {
			t.Fatalf("reactor: %v", err)
		}
	}
	// Base-station remote op against the midpoint as well.
	d.Base.RemoteOp(wire.OpRout, mid, tuplespace.T(tuplespace.Str("png")), tuplespace.Template{}, nil)

	if err := d.Sim.Run(d.Sim.Now() + 25*time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	h, n := rec.hash()
	return h, n, d.TotalStats(), Stats2{Medium: d.Medium.Stats(), Now: d.Sim.Now(), Events: d.Sim.Executed()}
}

// tracedDeployment builds a deployment over the layout with a trace
// recorder installed, warmed up.
func tracedDeployment(t *testing.T, layout topology.Layout, seed int64, workers int, opts ...func(*DeploymentSpec)) (*Deployment, *traceRecorder) {
	t.Helper()
	spec := DeploymentSpec{Layout: layout, Seed: seed, Workers: workers}
	for _, opt := range opts {
		opt(&spec)
	}
	d, err := NewDeployment(spec)
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	rec := newTraceRecorder()
	rec.install(d)
	if err := d.WarmUp(); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	return d, rec
}

// runSpreaderWorkload injects a weak-clone flood (agents.Spreader) at the
// first mote and runs it for 25 virtual seconds: every mote's first
// visitor clones to each of its neighbors, so the trace carries clone
// reports from remote instantiations. It returns what
// runDeterminismWorkload does plus the number of clone reports.
func runSpreaderWorkload(t *testing.T, layout topology.Layout, seed int64, workers int, opts ...func(*DeploymentSpec)) (uint64, int, NodeStats, Stats2, int) {
	t.Helper()
	d, rec := tracedDeployment(t, layout, seed, workers, opts...)
	if _, err := d.Base.InjectAgent(agents.Spreader("halt"), d.Locations()[0]); err != nil {
		t.Fatalf("inject spreader: %v", err)
	}
	if err := d.Sim.Run(d.Sim.Now() + 25*time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	h, n := rec.hash()
	clones := 0
	for _, l := range rec.lines {
		if strings.HasPrefix(l.desc, "cloned ") {
			clones++
		}
	}
	return h, n, d.TotalStats(), Stats2{Medium: d.Medium.Stats(), Now: d.Sim.Now(), Events: d.Sim.Executed()}, clones
}

// Stats2 bundles the executor-level quantities the comparison also pins.
type Stats2 struct {
	Medium radio.Stats
	Now    time.Duration
	Events uint64
}

func (s Stats2) String() string {
	return fmt.Sprintf("%+v now=%d events=%d", s.Medium, s.Now, s.Events)
}

func determinismLayouts(seed int64) map[string]topology.Layout {
	return map[string]topology.Layout{
		"grid":  topology.GridLayout(4, 4),
		"ring":  topology.RingLayout(10),
		"disk":  topology.RandomDiskLayout(12, 6, 2.0, seed),
		"line6": topology.LineLayout(6),
	}
}

func TestParallelExecutorMatchesSequentialTrace(t *testing.T) {
	for _, seed := range []int64{3, 17, 99} {
		for name, layout := range determinismLayouts(seed) {
			name, layout, seed := name, layout, seed
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				wantHash, wantLen, wantStats, wantExec := runDeterminismWorkload(t, layout, seed, 1)
				if wantLen == 0 {
					t.Fatal("sequential run produced no trace events")
				}
				checkGolden(t, fmt.Sprintf("workload %s seed=%d", name, seed), wantHash, wantLen, wantStats, wantExec)
				for _, workers := range []int{2, 4} {
					gotHash, gotLen, gotStats, gotExec := runDeterminismWorkload(t, layout, seed, workers)
					if gotLen != wantLen || gotHash != wantHash {
						t.Errorf("workers=%d: trace hash %016x (%d events), want %016x (%d events)",
							workers, gotHash, gotLen, wantHash, wantLen)
					}
					if gotStats != wantStats {
						t.Errorf("workers=%d: stats %+v, want %+v", workers, gotStats, wantStats)
					}
					if gotExec.String() != wantExec.String() {
						t.Errorf("workers=%d: executor state %v, want %v", workers, gotExec, wantExec)
					}
				}
			})
		}
	}
	// A weak-clone flood: the clone reports are hashed across worker
	// counts and against the step interpreter.
	t.Run("spreader", func(t *testing.T) {
		layout := topology.GridLayout(4, 4)
		wantHash, wantLen, wantStats, wantExec, clones := runSpreaderWorkload(t, layout, 3, 1)
		if clones < len(layout.Nodes)-1 {
			t.Fatalf("the flood reported %d clones, want at least %d", clones, len(layout.Nodes)-1)
		}
		checkGolden(t, "spreader grid seed=3", wantHash, wantLen, wantStats, wantExec)
		for _, v := range []struct {
			name    string
			workers int
			opts    []func(*DeploymentSpec)
		}{
			{"workers=2", 2, nil},
			{"ExecStep", 1, []func(*DeploymentSpec){withExec(ExecStep)}},
		} {
			name := v.name
			gotHash, gotLen, gotStats, gotExec, _ := runSpreaderWorkload(t, layout, 3, v.workers, v.opts...)
			if gotLen != wantLen || gotHash != wantHash {
				t.Errorf("%s: trace hash %016x (%d events), want %016x (%d events)", name, gotHash, gotLen, wantHash, wantLen)
			}
			if gotStats != wantStats {
				t.Errorf("%s: stats %+v, want %+v", name, gotStats, wantStats)
			}
			if gotExec.String() != wantExec.String() {
				t.Errorf("%s: executor state %v, want %v", name, gotExec, wantExec)
			}
		}
	})
}

// runWorldDeterminismWorkload drives the full dynamic-world feature set —
// scripted kills, a revival, a cross-shard move (strips partition by X,
// so relocating a column-1 mote to column 6 crosses every strip
// boundary), battery drain with energy deaths, plus the usual migration
// and remote traffic — and returns the trace hash and counters.
func runWorldDeterminismWorkload(t *testing.T, seed int64, workers int, opts ...func(*DeploymentSpec)) (uint64, int, NodeStats, Stats2, WorldStats) {
	t.Helper()
	energy := DefaultEnergyModel()
	energy.CapacityJ = 0.02 // some motes die of exhaustion inside the run
	spec := DeploymentSpec{
		Layout:  topology.GridLayout(5, 5),
		Seed:    seed,
		Workers: workers,
		Energy:  &energy,
	}
	for _, opt := range opts {
		opt(&spec)
	}
	d, err := NewDeployment(spec)
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	rec := newTraceRecorder()
	rec.install(d)

	if err := d.WarmUp(); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	start := d.Sim.Now()

	// Workload: a round-tripper crossing the move/death region, a remote
	// rout, and a reactor mid-grid.
	locs := d.Locations()
	far := locs[len(locs)-1]
	mid := locs[len(locs)/2]
	if _, err := d.Base.InjectAgent(asm.MustAssemble(agents.SmoveRoundTripSrc(far, d.Base.Loc())), locs[0]); err != nil {
		t.Fatalf("inject: %v", err)
	}
	if _, err := d.Base.InjectAgent(asm.MustAssemble(agents.RoutSrc(mid)), locs[0]); err != nil {
		t.Fatalf("inject rout: %v", err)
	}
	if n := d.Node(mid); n != nil {
		if _, err := n.CreateAgent(asm.MustAssemble(reactorSrc)); err != nil {
			t.Fatalf("reactor: %v", err)
		}
	}

	// The world schedule: kill + revive + a cross-shard move, overlapping
	// the agent traffic. Times are offsets from warm-up end.
	d.KillAt(start+2*time.Second, topology.Loc(3, 3))
	d.KillAt(start+3*time.Second, topology.Loc(4, 1))
	d.ReviveAt(start+9*time.Second, topology.Loc(3, 3))
	d.MoveAt(start+5*time.Second, topology.Loc(1, 2), topology.Loc(6, 3))
	d.MoveAt(start+12*time.Second, topology.Loc(6, 3), topology.Loc(1, 2))

	if err := d.Sim.Run(start + 20*time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	h, n := rec.hash()
	return h, n, d.TotalStats(), Stats2{Medium: d.Medium.Stats(), Now: d.Sim.Now(), Events: d.Sim.Executed()}, d.WorldStats()
}

// TestWorldDynamicsDeterministic is the acceptance gate for the dynamic
// world subsystem: with a scripted kill + revive + cross-shard move
// schedule and the energy model active, 1-worker and N-worker runs
// produce identical middleware trace hashes, counters, and executor
// state.
func TestWorldDynamicsDeterministic(t *testing.T) {
	for _, seed := range []int64{5, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			wantHash, wantLen, wantStats, wantExec, wantWorld := runWorldDeterminismWorkload(t, seed, 1)
			if wantLen == 0 {
				t.Fatal("sequential run produced no trace events")
			}
			if wantWorld.Kills != 2 || wantWorld.Revives != 1 || wantWorld.Moves != 2 {
				t.Fatalf("world schedule did not apply: %+v", wantWorld)
			}
			checkGolden(t, fmt.Sprintf("world grid5x5 seed=%d", seed), wantHash, wantLen, wantStats, wantExec, wantWorld)
			for _, workers := range []int{2, 4} {
				gotHash, gotLen, gotStats, gotExec, gotWorld := runWorldDeterminismWorkload(t, seed, workers)
				if gotLen != wantLen || gotHash != wantHash {
					t.Errorf("workers=%d: trace hash %016x (%d events), want %016x (%d events)",
						workers, gotHash, gotLen, wantHash, wantLen)
				}
				if gotStats != wantStats {
					t.Errorf("workers=%d: stats %+v, want %+v", workers, gotStats, wantStats)
				}
				if gotExec.String() != wantExec.String() {
					t.Errorf("workers=%d: executor state %v, want %v", workers, gotExec, wantExec)
				}
				if gotWorld != wantWorld {
					t.Errorf("workers=%d: world stats %+v, want %+v", workers, gotWorld, wantWorld)
				}
			}
		})
	}
}

// runReplicationDeterminismWorkload drives the gossip CRDT layer under
// churn: replication on every mote, application tuples outed across the
// grid, a kill + revive so the recovery re-sync runs, remote probes served
// from replicas, and the energy model charging every gossip frame.
func runReplicationDeterminismWorkload(t *testing.T, seed int64, workers int, opts ...func(*DeploymentSpec)) (uint64, int, NodeStats, Stats2) {
	t.Helper()
	energy := DefaultEnergyModel()
	energy.CapacityJ = 2.0 // generous: gossip airtime must not exhaust motes mid-run
	spec := DeploymentSpec{
		Layout:      topology.GridLayout(4, 4),
		Seed:        seed,
		Workers:     workers,
		Energy:      &energy,
		Replication: &Replication{K: 2, Period: 500 * time.Millisecond},
	}
	for _, opt := range opts {
		opt(&spec)
	}
	d, err := NewDeployment(spec)
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	rec := newTraceRecorder()
	rec.install(d)

	if err := d.WarmUp(); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	start := d.Sim.Now()

	// Seed application tuples on several motes, then let gossip spread
	// them while a kill/revive forces a recovery re-sync.
	locs := d.Locations()
	for i, loc := range locs {
		if err := d.Node(loc).TSOut(tuplespace.T(tuplespace.Str("sv"), tuplespace.Int(int16(i)))); err != nil {
			t.Fatalf("out at %v: %v", loc, err)
		}
	}
	victim := topology.Loc(2, 2)
	d.KillAt(start+3*time.Second, victim)
	d.ReviveAt(start+8*time.Second, victim)

	// Remote probes against a mote that never held the tuple locally: the
	// replica fallback answers them once gossip has spread the entries.
	probe := topology.Loc(4, 4)
	d.Sim.ScheduleWorldAt(start+6*time.Second, func() {
		d.Base.RemoteOp(wire.OpRrdp, probe, tuplespace.Tuple{},
			tuplespace.Tmpl(tuplespace.Str("sv"), tuplespace.TypeV(tuplespace.TypeValue)), nil)
	})
	d.Sim.ScheduleWorldAt(start+12*time.Second, func() {
		d.Base.RemoteOp(wire.OpRinp, probe, tuplespace.Tuple{},
			tuplespace.Tmpl(tuplespace.Str("sv"), tuplespace.TypeV(tuplespace.TypeValue)), nil)
	})

	if err := d.Sim.Run(start + 16*time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	h, n := rec.hash()
	return h, n, d.TotalStats(), Stats2{Medium: d.Medium.Stats(), Now: d.Sim.Now(), Events: d.Sim.Executed()}
}

// TestReplicationDeterministic is the acceptance gate for the replication
// subsystem: gossip, recovery re-sync, and replica-served remote probes
// produce identical trace hashes and counters at 1, 2, and 4 workers.
func TestReplicationDeterministic(t *testing.T) {
	for _, seed := range []int64{7, 41} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			wantHash, wantLen, wantStats, wantExec := runReplicationDeterminismWorkload(t, seed, 1)
			if wantLen == 0 {
				t.Fatal("sequential run produced no trace events")
			}
			if wantStats.TuplesReplicated == 0 {
				t.Fatalf("no tuples replicated — gossip never ran: %+v", wantStats)
			}
			if wantStats.TuplesRecovered == 0 {
				t.Fatalf("no tuples recovered after revive: %+v", wantStats)
			}
			checkGolden(t, fmt.Sprintf("replication grid4x4 seed=%d", seed), wantHash, wantLen, wantStats, wantExec)
			for _, workers := range []int{2, 4} {
				gotHash, gotLen, gotStats, gotExec := runReplicationDeterminismWorkload(t, seed, workers)
				if gotLen != wantLen || gotHash != wantHash {
					t.Errorf("workers=%d: trace hash %016x (%d events), want %016x (%d events)",
						workers, gotHash, gotLen, wantHash, wantLen)
				}
				if gotStats != wantStats {
					t.Errorf("workers=%d: stats %+v, want %+v", workers, gotStats, wantStats)
				}
				if gotExec.String() != wantExec.String() {
					t.Errorf("workers=%d: executor state %v, want %v", workers, gotExec, wantExec)
				}
			}
		})
	}
}

// TestParallelDeploymentBarrierStress drives a denser deployment under the
// parallel executor; with -race it proves the medium arenas, tracker, and
// trace fan-in are properly synchronized.
func TestParallelDeploymentBarrierStress(t *testing.T) {
	d, err := NewDeployment(DeploymentSpec{Layout: topology.GridLayout(6, 6), Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := newTraceRecorder()
	rec.install(d)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	locs := d.Locations()
	monitor := asm.MustAssemble(agents.MonitorSrc(2))
	for _, loc := range locs {
		if _, err := d.Node(loc).CreateAgent(monitor); err != nil {
			t.Fatal(err)
		}
	}
	far := locs[len(locs)-1]
	if _, err := d.Base.InjectAgent(asm.MustAssemble(agents.SmoveRoundTripSrc(far, d.Base.Loc())), locs[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.Sim.Run(d.Sim.Now() + 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, n := rec.hash(); n == 0 {
		t.Fatal("no trace events recorded")
	}
	if d.Sim.Executed() == 0 {
		t.Fatal("executor did nothing")
	}
}
