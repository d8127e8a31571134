package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/vm"
)

// The in-place step chain's contract is that ExecAuto is a pure
// optimization: every middleware observable — trace hooks, per-node
// counters, medium statistics, the logical event count, and the exact
// per-instruction schedule — must be byte-identical to the ExecStep seed
// interpreter (one heap event per instruction). These tests diff
// ExecAuto against the ExecStep oracle on the full determinism workloads
// and on targeted boundary scenarios inside one dispatch: a reaction
// firing delivered mid-run, energy exhaustion on the k-th instruction,
// Slice exhaustion across a jump, and agent death mid-run.

// withExec returns a DeploymentSpec option that pins the node execution
// mode.
func withExec(mode ExecMode) func(*DeploymentSpec) {
	return func(s *DeploymentSpec) { s.Node.Exec = mode }
}

// TestExecModesMatchSeedTrace reruns the determinism workloads
// (migration + remote ops + reactions; dynamic world with energy deaths;
// replication under churn) with bursting and the compiled backend
// enabled and requires the trace hash, counters, and executor state
// identical to the sequential one-event-per-instruction oracle.
func TestExecModesMatchSeedTrace(t *testing.T) {
	t.Run("migration", func(t *testing.T) {
		layout := topology.GridLayout(4, 4)
		wantHash, wantLen, wantStats, wantExec := runDeterminismWorkload(t, layout, 3, 1, withExec(ExecStep))
		if wantLen == 0 {
			t.Fatal("oracle run produced no trace events")
		}
		for _, workers := range []int{1, 4} {
			gotHash, gotLen, gotStats, gotExec := runDeterminismWorkload(t, layout, 3, workers, withExec(ExecAuto))
			if gotLen != wantLen || gotHash != wantHash {
				t.Errorf("auto/workers=%d: trace hash %016x (%d events), want %016x (%d events)",
					workers, gotHash, gotLen, wantHash, wantLen)
			}
			if gotStats != wantStats {
				t.Errorf("auto/workers=%d: stats %+v, want %+v", workers, gotStats, wantStats)
			}
			if gotExec.String() != wantExec.String() {
				t.Errorf("auto/workers=%d: executor state %v, want %v", workers, gotExec, wantExec)
			}
		}
	})
	t.Run("world", func(t *testing.T) {
		wantHash, wantLen, wantStats, wantExec, wantWorld := runWorldDeterminismWorkload(t, 5, 1, withExec(ExecStep))
		if wantLen == 0 {
			t.Fatal("oracle run produced no trace events")
		}
		for _, workers := range []int{1, 4} {
			gotHash, gotLen, gotStats, gotExec, gotWorld := runWorldDeterminismWorkload(t, 5, workers, withExec(ExecAuto))
			if gotLen != wantLen || gotHash != wantHash {
				t.Errorf("auto/workers=%d: trace hash %016x (%d events), want %016x (%d events)",
					workers, gotHash, gotLen, wantHash, wantLen)
			}
			if gotStats != wantStats {
				t.Errorf("auto/workers=%d: stats %+v, want %+v", workers, gotStats, wantStats)
			}
			if gotExec.String() != wantExec.String() {
				t.Errorf("auto/workers=%d: executor state %v, want %v", workers, gotExec, wantExec)
			}
			if gotWorld != wantWorld {
				t.Errorf("auto/workers=%d: world stats %+v, want %+v", workers, gotWorld, wantWorld)
			}
		}
	})
	t.Run("replication", func(t *testing.T) {
		wantHash, wantLen, wantStats, wantExec := runReplicationDeterminismWorkload(t, 7, 1, withExec(ExecStep))
		if wantLen == 0 {
			t.Fatal("oracle run produced no trace events")
		}
		for _, workers := range []int{1, 4} {
			gotHash, gotLen, gotStats, gotExec := runReplicationDeterminismWorkload(t, 7, workers, withExec(ExecAuto))
			if gotLen != wantLen || gotHash != wantHash {
				t.Errorf("auto/workers=%d: trace hash %016x (%d events), want %016x (%d events)",
					workers, gotHash, gotLen, wantHash, wantLen)
			}
			if gotStats != wantStats {
				t.Errorf("auto/workers=%d: stats %+v, want %+v", workers, gotStats, wantStats)
			}
			if gotExec.String() != wantExec.String() {
				t.Errorf("auto/workers=%d: executor state %v, want %v", workers, gotExec, wantExec)
			}
		}
	})
	t.Run("interpreter-fallback", func(t *testing.T) {
		// Neither agent has a compiled closure where it runs, so ExecAuto
		// must carry both through vm.Step on the engine's in-place step chain.
		if _, err := vm.Verify(unverifiableLoop); err == nil {
			t.Fatal("unverifiableLoop passes vm.Verify — it would be compiled")
		}
		if c, err := vm.Compile(misalignedLoop); err != nil || c.StepAt(7) != nil {
			t.Fatalf("misalignedLoop must compile with no closure at pc 7 (err %v)", err)
		}
		spec := DeploymentSpec{Layout: topology.GridLayout(1, 1), Seed: 23}
		oracle, auto := runBoundaryScenario(t, spec, time.Second, func(t *testing.T, d *Deployment) {
			n := d.Node(d.Locations()[0])
			for _, code := range [][]byte{unverifiableLoop, misalignedLoop} {
				if _, err := n.CreateAgent(code); err != nil {
					t.Fatalf("create agent: %v", err)
				}
			}
		})
		if oracle.stats.AgentsDied != 0 || oracle.stats.InstrExecuted < 4*uint64(DefaultSlice) {
			t.Fatalf("fallback agents did not keep running: %+v", oracle.stats)
		}
		if auto.dispatched >= auto.exec.Events {
			t.Errorf("auto mode absorbed no events: dispatched %d of %d", auto.dispatched, auto.exec.Events)
		}
	})
}

// unverifiableLoop is busyLoopSrc with an unknown opcode after the jump:
// never reached, but it fails vm.Verify, so the program is never compiled
// and every instruction is interpreted.
var unverifiableLoop = []byte{
	byte(vm.OpPushc), 1, byte(vm.OpPushc), 2, byte(vm.OpAdd), byte(vm.OpPop),
	byte(vm.OpRjump), 0xfa, // back to pc 0
	0xee,
}

// misalignedLoop verifies and compiles, but its computed jumps lands on
// pc 7, inside pushcl's operands. Those bytes decode as `pushc 1`, which
// falls through onto the pop at pc 9 — a compiled boundary again — so each
// lap runs one instruction the compiled program has no closure for.
var misalignedLoop = []byte{
	byte(vm.OpPushc), 3, byte(vm.OpPushc), 4, byte(vm.OpAdd), byte(vm.OpJumps), // pc 0-5: jump to 3+4
	byte(vm.OpPushcl), byte(vm.OpPushc), 1, // pc 6: never executed as pushcl
	byte(vm.OpPop),         // pc 9
	byte(vm.OpRjump), 0xf6, // pc 10: back to pc 0
}

// busyLoopSrc is a pure straight-line compute loop — the maximal-burst
// shape: no effects, no blocking, only a relative jump at the end.
const busyLoopSrc = `
	LOOP pushc 1
	     pushc 2
	     add
	     pop
	     rjump LOOP
`

// pngProducerSrc outs a <"png"> tuple (waking any registered reaction),
// then sleeps before producing the next.
const pngProducerSrc = `
	LOOP pushn png
	     pushc 1
	     out
	     pushcl 6
	     sleep
	     rjump LOOP
`

// dieMidRunSrc executes four clean straight-line instructions and then
// dies on the fifth with a data-dependent stack underflow (out asks for
// five fields with one on the stack) — a runtime error the verifier
// tolerates, so the compiled backend runs it and must fail at the exact
// same instruction with the exact same error text.
const dieMidRunSrc = `
	pushc 1
	pushc 2
	add
	pushc 5
	out
	halt
`

// burstScenarioResult pins everything a boundary scenario compares:
// the full trace hash (including a line per executed instruction), the
// per-node counters, executor state, and the scheduler split between
// logical and heap-dispatched events.
type burstScenarioResult struct {
	hash       uint64
	lines      int
	stats      NodeStats
	exec       Stats2
	dispatched uint64
	trace      []string
}

// runBurstScenario builds a deployment in the given mode, installs the
// standard trace recorder plus a per-instruction hook (so the comparison
// pins the exact instruction schedule, not just middleware milestones),
// runs drive, then the clock for horizon.
func runBurstScenario(t *testing.T, mode ExecMode, workers int, spec DeploymentSpec,
	horizon time.Duration, drive func(t *testing.T, d *Deployment)) burstScenarioResult {
	t.Helper()
	spec.Node.Exec = mode
	spec.Workers = workers
	d, err := NewDeployment(spec)
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	rec := newTraceRecorder()
	rec.install(d)
	d.Trace.InstrExecuted = func(node topology.Location, id uint16, op vm.Op) {
		rec.add(d.NowAt(node), node, "instr %d %v", id, op)
	}
	if err := d.WarmUp(); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	drive(t, d)
	if err := d.Sim.Run(d.Sim.Now() + horizon); err != nil {
		t.Fatalf("run: %v", err)
	}
	h, n := rec.hash()
	var lines []string
	for _, l := range rec.lines {
		lines = append(lines, fmt.Sprintf("%d|%v|%d|%s", l.at, l.node, l.seq, l.desc))
	}
	return burstScenarioResult{
		hash:       h,
		lines:      n,
		stats:      d.TotalStats(),
		exec:       Stats2{Medium: d.Medium.Stats(), Now: d.Sim.Now(), Events: d.Sim.Executed()},
		dispatched: d.Sim.Dispatched(),
		trace:      lines,
	}
}

// diffBurstScenario compares an ExecAuto run against the ExecStep oracle
// and, on mismatch, prints the first diverging trace line.
func diffBurstScenario(t *testing.T, label string, got, want burstScenarioResult) {
	t.Helper()
	if got.hash == want.hash && got.lines == want.lines &&
		got.stats == want.stats && got.exec.String() == want.exec.String() {
		return
	}
	t.Errorf("%s: trace hash %016x (%d lines) stats %+v exec %v,\nwant %016x (%d lines) stats %+v exec %v",
		label, got.hash, got.lines, got.stats, got.exec, want.hash, want.lines, want.stats, want.exec)
	for i := 0; i < len(got.trace) && i < len(want.trace); i++ {
		if got.trace[i] != want.trace[i] {
			t.Errorf("%s: first divergence at trace line %d:\n  got  %s\n  want %s", label, i, got.trace[i], want.trace[i])
			return
		}
	}
	t.Errorf("%s: traces are a prefix of each other (got %d lines, want %d)", label, len(got.trace), len(want.trace))
}

// runBoundaryScenario diffs ExecAuto (at 1 and 2 workers) against the
// sequential seed interpreter and returns the oracle plus the 1-worker
// auto-mode result for scenario-specific assertions.
func runBoundaryScenario(t *testing.T, spec DeploymentSpec, horizon time.Duration,
	drive func(t *testing.T, d *Deployment)) (oracle, auto burstScenarioResult) {
	t.Helper()
	oracle = runBurstScenario(t, ExecStep, 1, spec, horizon, drive)
	if oracle.lines == 0 {
		t.Fatal("oracle run produced no trace events")
	}
	if oracle.dispatched != oracle.exec.Events {
		t.Fatalf("ExecStep absorbed events locally: dispatched %d, executed %d",
			oracle.dispatched, oracle.exec.Events)
	}
	for _, workers := range []int{1, 2} {
		got := runBurstScenario(t, ExecAuto, workers, spec, horizon, drive)
		diffBurstScenario(t, fmt.Sprintf("auto/workers=%d", workers), got, oracle)
		if workers == 1 {
			auto = got
		}
	}
	return oracle, auto
}

// hasTraceLine reports whether any trace line contains the substring.
func hasTraceLine(res burstScenarioResult, substr string) bool {
	for _, l := range res.trace {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

// TestBurstBoundaryReactionMidRun pins reaction delivery: a reactor
// registers on <"png">, a producer outs matching tuples, and a busy-loop
// agent keeps the engine in maximal straight-line bursts. The firing must
// be delivered at the same instruction boundary in every mode.
func TestBurstBoundaryReactionMidRun(t *testing.T) {
	spec := DeploymentSpec{Layout: topology.GridLayout(1, 1), Seed: 11}
	oracle, auto := runBoundaryScenario(t, spec, 2*time.Second, func(t *testing.T, d *Deployment) {
		n := d.Node(d.Locations()[0])
		for _, src := range []string{reactorSrc, busyLoopSrc, pngProducerSrc} {
			if _, err := n.CreateAgent(asm.MustAssemble(src)); err != nil {
				t.Fatalf("create agent: %v", err)
			}
		}
	})
	if !hasTraceLine(oracle, "rxn ") {
		t.Fatal("no reaction fired — scenario does not exercise mid-run delivery")
	}
	if oracle.stats.ReactionsFired == 0 {
		t.Fatalf("no reactions in stats: %+v", oracle.stats)
	}
	if auto.dispatched >= auto.exec.Events {
		t.Errorf("auto mode absorbed no events: dispatched %d of %d", auto.dispatched, auto.exec.Events)
	}
}

// TestBurstBoundaryEnergyExhaustion pins mid-burst battery death: with a
// tiny capacity, the per-instruction charge empties the battery on some
// k-th instruction of a straight-line run. The node must die at the
// identical instruction (identical instruction-trace prefix and energy
// figure) in every mode.
func TestBurstBoundaryEnergyExhaustion(t *testing.T) {
	energy := DefaultEnergyModel()
	energy.CapacityJ = 0.02
	spec := DeploymentSpec{Layout: topology.GridLayout(2, 2), Seed: 13, Energy: &energy}
	oracle, _ := runBoundaryScenario(t, spec, 5*time.Second, func(t *testing.T, d *Deployment) {
		loop := asm.MustAssemble(busyLoopSrc)
		for _, loc := range d.Locations() {
			if _, err := d.Node(loc).CreateAgent(loop); err != nil {
				t.Fatalf("create agent: %v", err)
			}
		}
	})
	if !hasTraceLine(oracle, "energy-exhausted") || !hasTraceLine(oracle, "node-died") {
		t.Fatal("no energy death — scenario does not exercise mid-burst exhaustion")
	}
}

// TestBurstBoundarySliceExhaustion pins the round-robin rotation: two
// loops on one mote with the default Slice must interleave in exactly the
// seed's pattern — the per-instruction trace captures every context
// switch. Each loop body ends in a jump and is five instructions long, so
// slices end at every position in it; with fewer dispatches than slices,
// one dispatch must span both a rotation and a jump.
func TestBurstBoundarySliceExhaustion(t *testing.T) {
	spec := DeploymentSpec{Layout: topology.GridLayout(1, 1), Seed: 17}
	oracle, auto := runBoundaryScenario(t, spec, time.Second, func(t *testing.T, d *Deployment) {
		n := d.Node(d.Locations()[0])
		loop := asm.MustAssemble(busyLoopSrc)
		for i := 0; i < 2; i++ {
			if _, err := n.CreateAgent(loop); err != nil {
				t.Fatalf("create agent: %v", err)
			}
		}
	})
	if oracle.stats.InstrExecuted < 2*uint64(DefaultSlice) {
		t.Fatalf("too few instructions to exhaust a slice: %+v", oracle.stats)
	}
	if slices := oracle.stats.InstrExecuted / uint64(DefaultSlice); auto.dispatched >= slices {
		t.Errorf("auto mode dispatched %d events for %d slices: no dispatch spans a rotation and a jump",
			auto.dispatched, slices)
	}
}

// TestBurstBoundaryAgentDeathMidRun pins mid-burst agent death: the
// program passes verification but dies on the fifth instruction of a
// straight-line run with a data-dependent stack underflow. The death must
// land on the same instruction with the same error text in every mode.
func TestBurstBoundaryAgentDeathMidRun(t *testing.T) {
	spec := DeploymentSpec{Layout: topology.GridLayout(1, 1), Seed: 19}
	oracle, _ := runBoundaryScenario(t, spec, time.Second, func(t *testing.T, d *Deployment) {
		n := d.Node(d.Locations()[0])
		for _, src := range []string{dieMidRunSrc, busyLoopSrc} {
			if _, err := n.CreateAgent(asm.MustAssemble(src)); err != nil {
				t.Fatalf("create agent: %v", err)
			}
		}
	})
	if !hasTraceLine(oracle, "died ") || !hasTraceLine(oracle, "stack underflow") {
		t.Fatal("no agent death with underflow — scenario does not exercise mid-burst death")
	}
	if oracle.stats.AgentsDied == 0 {
		t.Fatalf("no agent died in stats: %+v", oracle.stats)
	}
}

// TestRunRingCapacityStable is the regression test for the seed's
// run-queue leak: `runQueue = runQueue[1:]` advanced a slice, keeping
// every dequeued record reachable and regrowing the backing array
// forever. The ring must hold a stable, small capacity across many agent
// generations, and must never retain a record in a vacated slot.
func TestRunRingCapacityStable(t *testing.T) {
	var r runRing
	mk := func(i int) *record { return &record{agent: &vm.Agent{ID: uint16(i)}} }

	// Many lifecycles of a small working set: capacity must stay at the
	// initial allocation no matter how many records pass through.
	for gen := 0; gen < 10_000; gen++ {
		for i := 0; i < 3; i++ {
			r.Push(mk(gen*3 + i))
		}
		r.Rotate() // a context switch per generation
		for r.Len() > 0 {
			r.PopHead()
		}
	}
	if r.Cap() != 4 {
		t.Fatalf("ring capacity grew to %d across generations, want the 4 inline slots", r.Cap())
	}

	// Vacated slots must be nil so dead records are collectable.
	r.Push(mk(1))
	r.Push(mk(2))
	r.PopHead()
	r.Rotate()
	for r.Len() > 0 {
		r.PopHead()
	}
	for i, slot := range r.buf {
		if slot != nil {
			t.Fatalf("slot %d still holds a record after draining", i)
		}
	}

	// Growth doubles and preserves FIFO order.
	for i := 0; i < 37; i++ {
		r.Push(mk(i))
	}
	if r.Cap() != 64 {
		t.Fatalf("capacity after 37 pushes = %d, want 64", r.Cap())
	}
	for i := 0; i < 37; i++ {
		if got := r.PopHead().agent.ID; got != uint16(i) {
			t.Fatalf("pop %d returned agent %d", i, got)
		}
	}
}
