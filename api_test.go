package agilla_test

// Tests for the composable deployment API: topologies, functional
// options, agent handles, and the scenario runner.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/program"
)

// marker is an agent that stamps <"vst", here> and halts.
const marker = "pushn vst\nloc\npushc 2\nout\nhalt"

var visited = agilla.Tmpl(agilla.Str("vst"), agilla.TypeV(3))

// playFarthestCourier injects the marker agent at the mote farthest from
// the base station and waits for it to finish — the shared workload of
// TestScenarioOnRandomDisk and BenchmarkRandomDiskMigration.
func playFarthestCourier(_ context.Context, nw *agilla.Network, m *agilla.Metrics) error {
	base := nw.Base().Loc()
	far := nw.Locations()[0]
	for _, l := range nw.Locations() {
		if l.Dist(base) > far.Dist(base) {
			far = l
		}
	}
	ag, err := nw.Launch(program.MustParse(marker), far)
	if err != nil {
		return err
	}
	done, err := ag.WaitDone(2 * time.Minute)
	if err != nil {
		return err
	}
	m.Completed = done // a lossy radio may legitimately lose the agent
	m.Set("hops", float64(ag.Hops()))
	return nil
}

func TestNewDefaultsToPaperTestbed(t *testing.T) {
	nw, err := agilla.New()
	if err != nil {
		t.Fatal(err)
	}
	if w, h := nw.Size(); w != 5 || h != 5 {
		t.Fatalf("default size = %dx%d, want 5x5", w, h)
	}
	if n := len(nw.Locations()); n != 25 {
		t.Fatalf("default deployment has %d motes, want 25", n)
	}
}

func TestNewRejectsInvalidTopology(t *testing.T) {
	for _, top := range []agilla.Topology{
		agilla.Grid(0, 5),
		agilla.Line(0),
		agilla.Ring(2),
		agilla.RandomDisk(20, 4, 2.5),                         // more motes than cells
		agilla.RandomDisk(20, 1, 2.5),                         // degenerate region
		agilla.RandomDisk(8, 8, 0),                            // zero radio range
		agilla.Custom(1.5, agilla.Loc(0, 0)),                  // node on the base station
		agilla.Custom(0, agilla.Loc(1, 1), agilla.Loc(2, 1)),  // zero radio range
		agilla.Custom(-1, agilla.Loc(1, 1), agilla.Loc(2, 1)), // negative radio range
	} {
		if _, err := agilla.New(agilla.WithTopology(top)); err == nil {
			t.Errorf("topology %v must fail New", top)
		}
	}
	// Two motes out of each other's range: a partitioned field, refused
	// whichever topology built it.
	apart := agilla.Custom(1.5, agilla.Loc(1, 1), agilla.Loc(9, 9))
	if _, err := agilla.New(agilla.WithTopology(apart)); !errors.Is(err, agilla.ErrDisconnected) {
		t.Errorf("partitioned custom topology: New = %v, want ErrDisconnected", err)
	}
}

// TestLineMigrationEndToEnd walks an agent down a line: the injection is
// a real hop-by-hop migration relayed through every intermediate mote.
func TestLineMigrationEndToEnd(t *testing.T) {
	const n = 6
	nw, err := agilla.New(
		agilla.WithTopology(agilla.Line(n)),
		agilla.WithReliableRadio(),
		agilla.WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	end := agilla.Loc(n, 1)
	ag, err := nw.Launch(program.MustParse(marker), end)
	if err != nil {
		t.Fatal(err)
	}
	done, err := ag.WaitDone(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("agent never finished: %v", ag)
	}
	if !ag.Halted() || ag.Err() != nil {
		t.Fatalf("agent should have halted cleanly: %v (err %v)", ag, ag.Err())
	}
	if ag.Location() != end {
		t.Fatalf("agent ended at %v, want %v", ag.Location(), end)
	}
	// Base -> gateway -> ... -> (n,1) is n hops.
	if ag.Hops() != n {
		t.Fatalf("agent took %d hops, want %d", ag.Hops(), n)
	}
	if nw.Space(end).Count(visited) != 1 {
		t.Fatalf("end of line not stamped; space: %v", nw.Space(end).All())
	}
}

// TestRingMigrationEndToEnd circumnavigates a ring via quarter-point
// waypoints: every leg is relayed along the arc by greedy routing, and
// later legs re-cross relay motes the injection already traversed — a
// regression test for the duplicate-transfer suppression collision that
// used to swallow an agent revisiting a node.
func TestRingMigrationEndToEnd(t *testing.T) {
	const n = 12
	nw, err := agilla.New(
		agilla.WithTopology(agilla.Ring(n)),
		agilla.WithReliableRadio(),
		agilla.WithSeed(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	ring := nw.Locations()
	start := ring[0]
	prog := "pushn vst\nloc\npushc 2\nout\n"
	for _, wp := range []agilla.Location{ring[3], ring[6], ring[9], ring[0]} {
		prog += fmt.Sprintf("pushloc %d %d\nsmove\npushn vst\nloc\npushc 2\nout\n", wp.X, wp.Y)
	}
	prog += "halt\n"
	ag, err := nw.Launch(program.MustParse(prog), start)
	if err != nil {
		t.Fatal(err)
	}
	done, err := ag.WaitDone(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("agent never finished the loop: %v", ag)
	}
	if ag.Location() != start {
		t.Fatalf("agent ended at %v, want %v (full circumnavigation)", ag.Location(), start)
	}
	for _, wp := range []agilla.Location{ring[0], ring[3], ring[6], ring[9]} {
		if nw.Space(wp).Count(visited) == 0 {
			t.Errorf("waypoint %v not stamped", wp)
		}
	}
	// A full loop is at least the ring circumference, plus injection hops.
	if ag.Hops() < n {
		t.Fatalf("agent took %d hops, want >= %d", ag.Hops(), n)
	}
}

func TestAgentWaitSemantics(t *testing.T) {
	nw, err := agilla.New(
		agilla.WithTopology(agilla.Grid(2, 1)),
		agilla.WithReliableRadio(),
		agilla.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	ag, err := nw.Launch(program.MustParse("pushc 16\nsleep\nhalt"), agilla.Loc(2, 1))
	if err != nil {
		t.Fatal(err)
	}

	// A predicate that is already true returns immediately without
	// advancing virtual time.
	before := nw.Now()
	ok, err := ag.Wait(func(*agilla.Agent) bool { return true }, time.Hour)
	if err != nil || !ok {
		t.Fatalf("Wait(true) = %v, %v", ok, err)
	}
	if nw.Now() != before {
		t.Fatal("an already-true predicate must not advance time")
	}

	// A predicate that never fires returns false once the limit passes.
	ok, err = ag.Wait(func(*agilla.Agent) bool { return false }, 100*time.Millisecond)
	if err != nil || ok {
		t.Fatalf("Wait(false) = %v, %v", ok, err)
	}
	if elapsed := nw.Now() - before; elapsed > 150*time.Millisecond {
		t.Fatalf("Wait(false) overshot its limit: %v", elapsed)
	}

	// A nil predicate is an error, not a panic.
	if _, err := ag.Wait(nil, time.Second); err == nil {
		t.Fatal("Wait(nil) must fail")
	}

	// WaitDone observes the sleep ending and the halt.
	done, err := ag.WaitDone(time.Minute)
	if err != nil || !done {
		t.Fatalf("WaitDone = %v, %v", done, err)
	}
	if !ag.Done() || ag.Alive() || !ag.Halted() {
		t.Fatalf("terminal handle state wrong: done=%v alive=%v halted=%v", ag.Done(), ag.Alive(), ag.Halted())
	}
	if ag.Host() != nil {
		t.Fatal("a dead agent has no host")
	}
	// Waiting on a dead agent resolves immediately.
	if done, err := ag.WaitDone(time.Second); err != nil || !done {
		t.Fatalf("WaitDone after death = %v, %v", done, err)
	}
}

func TestAgentCloneCount(t *testing.T) {
	nw, err := agilla.New(
		agilla.WithTopology(agilla.Grid(2, 1)),
		agilla.WithReliableRadio(),
		agilla.WithSeed(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	// Strong-clone once to the neighbor mote, then halt. The clone
	// resumes after the sclone with condition 1 and halts there.
	ag, err := nw.Launch(program.MustParse("pushloc 2 1\nsclone\nhalt"), agilla.Loc(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if done, err := ag.WaitDone(time.Minute); err != nil || !done {
		t.Fatalf("parent never finished: %v %v", done, err)
	}
	// The parent resumes (and halts) as soon as the handoff is
	// acknowledged; the clone instantiates on the receiver a little
	// later, after the modelled reassembly overhead.
	cloned, err := ag.Wait(func(a *agilla.Agent) bool { return a.Clones() == 1 }, time.Minute)
	if err != nil || !cloned {
		t.Fatalf("parent clone count = %d, want 1 (ok=%v err=%v)", ag.Clones(), cloned, err)
	}
	// The clone is tracked too, attributed to the parent.
	var clone *agilla.Agent
	for _, other := range nw.Agents() {
		if p := other.Parent(); p != nil && p.ID() == ag.ID() {
			clone = other
		}
	}
	if clone == nil {
		t.Fatal("clone not tracked")
	}
	if loc := clone.Location(); loc != agilla.Loc(2, 1) {
		t.Fatalf("clone tracked at %v, want (2,1)", loc)
	}
}

func TestRemoteReadTimeoutTyped(t *testing.T) {
	nw, err := agilla.New(
		agilla.WithTopology(agilla.Grid(3, 1)),
		agilla.WithReliableRadio(),
		agilla.WithSeed(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	// Kill the target mote: requests vanish, the operation must time out
	// with the typed error rather than a generic failure.
	nw.Node(agilla.Loc(3, 1)).Stop()
	_, ok, err := nw.Remote().Rrdp(agilla.Loc(3, 1), agilla.Tmpl(agilla.Int(1)))
	if ok {
		t.Fatal("read of a dead mote cannot succeed")
	}
	if !errors.Is(err, agilla.ErrRemoteTimeout) {
		t.Fatalf("err = %v, want ErrRemoteTimeout", err)
	}

	// A live mote with no matching tuple is ok=false with NO error.
	if _, ok, err := nw.Remote().Rrdp(agilla.Loc(2, 1), agilla.Tmpl(agilla.Int(1))); ok || err != nil {
		t.Fatalf("no-match read = %v, %v; want false, nil", ok, err)
	}
}

func TestRemoteReadHonorsNodeConfig(t *testing.T) {
	// Shrink the remote-op budget and confirm the derived deadline
	// follows it: the whole timed-out read resolves well inside the old
	// hardcoded 10s.
	nw, err := agilla.New(
		agilla.WithTopology(agilla.Grid(2, 1)),
		agilla.WithReliableRadio(),
		agilla.WithNodeConfig(agilla.NodeConfig{
			RemoteTimeout: 200 * time.Millisecond,
			RemoteRetries: -1, // no retransmissions
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	nw.Node(agilla.Loc(2, 1)).Stop()
	before := nw.Now()
	_, _, err = nw.Remote().Rrdp(agilla.Loc(2, 1), agilla.Tmpl(agilla.Int(1)))
	if !errors.Is(err, agilla.ErrRemoteTimeout) {
		t.Fatalf("err = %v, want ErrRemoteTimeout", err)
	}
	if elapsed := nw.Now() - before; elapsed > 2*time.Second {
		t.Fatalf("timeout took %v of virtual time; deadline not derived from config", elapsed)
	}
}

// courierScenario is a small deterministic scenario used by the runner
// tests: an agent stamps the far corner of a reliable 3×3 grid.
func courierScenario() *agilla.Scenario {
	return &agilla.Scenario{
		Name:     "courier",
		Options:  []agilla.Option{agilla.WithTopology(agilla.Grid(3, 3)), agilla.WithReliableRadio()},
		Agents:   []agilla.AgentSpec{{Name: "courier", Program: program.MustParse(marker), At: agilla.Loc(3, 3)}},
		Duration: 2 * time.Minute,
		Until: func(nw *agilla.Network) bool {
			return nw.Space(agilla.Loc(3, 3)).Count(visited) > 0
		},
		Collect: func(nw *agilla.Network, m *agilla.Metrics) {
			m.Set("stamped", float64(nw.Space(agilla.Loc(3, 3)).Count(visited)))
		},
	}
}

func TestScenarioRun(t *testing.T) {
	m, err := courierScenario().Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Completed {
		t.Fatalf("scenario incomplete: %v", m)
	}
	if m.Values["stamped"] != 1 {
		t.Fatalf("stamped = %v", m.Values["stamped"])
	}
	if m.AgentsSpawned < 1 || m.Hops < 4 || m.FramesSent == 0 {
		t.Fatalf("implausible metrics: %v", m)
	}
}

// TestRunManyDeterminism is the core contract of the parallel runner:
// fanning seeds out across goroutines yields byte-identical metrics to
// running each seed serially, because every run owns its simulator.
func TestRunManyDeterminism(t *testing.T) {
	sc := courierScenario()
	seeds := []int64{1, 2, 3, 4, 5, 6}

	parallel, err := sc.RunMany(context.Background(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	parallel2, err := sc.RunMany(context.Background(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		serial, err := sc.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel[i]) {
			t.Errorf("seed %d: parallel %v != serial %v", seed, parallel[i], serial)
		}
		if !reflect.DeepEqual(parallel[i], parallel2[i]) {
			t.Errorf("seed %d: two parallel sweeps diverged: %v vs %v", seed, parallel[i], parallel2[i])
		}
	}
}

func TestRunManyCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := courierScenario().RunMany(ctx, []int64{1, 2, 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestScenarioSeedOverridesOptions: each run's seed wins over a WithSeed
// in Options, so a sweep never repeats one placement.
func TestScenarioSeedOverridesOptions(t *testing.T) {
	disk := agilla.WithTopology(agilla.RandomDisk(12, 6, 2.5))
	placement := func(seed int64) []agilla.Location {
		nw, err := agilla.New(disk, agilla.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return nw.Locations()
	}
	var got []agilla.Location
	sc := &agilla.Scenario{
		Options:    []agilla.Option{disk, agilla.WithSeed(99)},
		SkipWarmup: true,
		Duration:   time.Millisecond,
		Collect:    func(nw *agilla.Network, _ *agilla.Metrics) { got = nw.Locations() },
	}
	if _, err := sc.Run(11); err != nil {
		t.Fatal(err)
	}
	if want, options := placement(11), placement(99); !reflect.DeepEqual(got, want) || reflect.DeepEqual(got, options) {
		t.Fatalf("run at seed 11 placed %v; seed 11 places %v, the options' seed 99 %v", got, want, options)
	}
}

// TestScenarioFieldForOverridesOptions: the per-run field replaces a
// WithField in Options.
func TestScenarioFieldForOverridesOptions(t *testing.T) {
	shared, perRun := agilla.NewFire(time.Second, 3, 3), agilla.NewFire(time.Second, 3, 3)
	var got agilla.Field
	sc := &agilla.Scenario{
		Options:    []agilla.Option{agilla.WithTopology(agilla.Grid(3, 3)), agilla.WithField(shared)},
		FieldFor:   func(int64) agilla.Field { return perRun },
		SkipWarmup: true,
		Duration:   time.Millisecond,
		Collect:    func(nw *agilla.Network, _ *agilla.Metrics) { got = nw.Field() },
	}
	if _, err := sc.Run(1); err != nil {
		t.Fatal(err)
	}
	if got != agilla.Field(perRun) {
		t.Fatal("the run's field is not FieldFor's")
	}
}

// TestRunManyWithOptions: options that give every run its own kernel
// workers, batteries and replica gossip still yield per-seed metrics
// identical to serial runs. Run under -race it also shows the runs share
// nothing the options carry.
func TestRunManyWithOptions(t *testing.T) {
	energy := agilla.DefaultEnergyModel()
	energy.CapacityJ = 50
	sc := courierScenario()
	sc.Until, sc.Duration = nil, 10*time.Second // long enough to gossip the stamp
	sc.Options = append(sc.Options,
		agilla.WithEnergy(energy),
		agilla.WithReplication(agilla.Replication{}),
		agilla.WithWorkers(2),
	)
	seeds := []int64{1, 2, 3, 4}
	parallel, err := sc.RunMany(context.Background(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		serial, err := sc.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel[i]) {
			t.Errorf("seed %d: parallel %v != serial %v", seed, parallel[i], serial)
		}
		if serial.EnergyUsedJ == 0 || serial.TuplesReplicated == 0 {
			t.Errorf("seed %d: options not applied: energy %g J, %d tuples replicated",
				seed, serial.EnergyUsedJ, serial.TuplesReplicated)
		}
	}
}

func TestScenarioOnRandomDisk(t *testing.T) {
	sc := &agilla.Scenario{
		Name:    "disk-sweep",
		Options: []agilla.Option{agilla.WithTopology(agilla.RandomDisk(12, 6, 2.5)), agilla.WithReliableRadio()},
		Play:    playFarthestCourier,
	}
	m, err := sc.Run(11)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Completed {
		t.Fatalf("disk courier never arrived: %v", m)
	}
	if m.Values["hops"] < 1 {
		t.Fatalf("expected at least one hop, got %v", m.Values["hops"])
	}
}

func TestCustomTopology(t *testing.T) {
	// A T-shaped deployment impossible to express as a grid size.
	locs := []agilla.Location{
		agilla.Loc(1, 1), agilla.Loc(2, 1), agilla.Loc(3, 1),
		agilla.Loc(2, 2), agilla.Loc(2, 3),
	}
	nw, err := agilla.New(
		agilla.WithTopology(agilla.Custom(1.2, locs...)),
		agilla.WithReliableRadio(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	ag, err := nw.Launch(program.MustParse(marker), agilla.Loc(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if done, err := ag.WaitDone(time.Minute); err != nil || !done {
		t.Fatalf("courier on custom topology: done=%v err=%v (%v)", done, err, ag)
	}
	if nw.Space(agilla.Loc(2, 3)).Count(visited) != 1 {
		t.Fatal("top of the T not stamped")
	}
}
