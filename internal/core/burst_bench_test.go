package core

import (
	"runtime"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sensor"
	"github.com/agilla-go/agilla/internal/topology"
)

// benchEngineDeployment builds the smallest hot-loop testbed: one mote,
// zero-loss radio, and compute-loop agents driving the engine at full
// rate in the given execution mode.
func benchEngineDeployment(tb testing.TB, mode ExecMode, agents int) *Deployment {
	tb.Helper()
	params := radio.ZeroLoss()
	d, err := NewDeployment(DeploymentSpec{
		Layout: topology.GridLayout(1, 1),
		Seed:   1,
		Radio:  &params,
		Field:  sensor.Constant(25),
		Node:   Config{Exec: mode},
	})
	if err != nil {
		tb.Fatalf("deployment: %v", err)
	}
	if err := d.WarmUp(); err != nil {
		tb.Fatalf("warm-up: %v", err)
	}
	n := d.Node(d.Locations()[0])
	loop := asm.MustAssemble(busyLoopSrc)
	for i := 0; i < agents; i++ {
		if _, err := n.CreateAgent(loop); err != nil {
			tb.Fatalf("create agent: %v", err)
		}
	}
	return d
}

// runInstr advances virtual time until the deployment has executed at
// least target instructions, returning the total executed.
func runInstr(tb testing.TB, d *Deployment, target uint64) uint64 {
	tb.Helper()
	for {
		got := d.TotalStats().InstrExecuted
		if got >= target {
			return got
		}
		if err := d.Sim.Run(d.Sim.Now() + 100*time.Millisecond); err != nil {
			tb.Fatalf("run: %v", err)
		}
	}
}

// TestEngineBurstPathLowAlloc pins the steady-state burst execution path
// near zero heap allocations per instruction. The whole-simulation loop
// cannot be literally allocation-free — periodic beacons, sleep timers,
// and heap growth are real work — so this asserts the amortized rate:
// fewer than one allocation per hundred executed instructions, which is
// only reachable when the per-instruction path (step dispatch, outcome,
// run-queue, in-place chaining) allocates nothing.
func TestEngineBurstPathLowAlloc(t *testing.T) {
	d := benchEngineDeployment(t, ExecAuto, 2)
	// Warm the steady state: queues, due lists, and ring at capacity.
	before := runInstr(t, d, 20_000)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	after := runInstr(t, d, before+200_000)
	runtime.ReadMemStats(&m1)

	instr := after - before
	allocs := m1.Mallocs - m0.Mallocs
	if instr == 0 {
		t.Fatal("no instructions executed")
	}
	if allocs*100 >= instr {
		t.Fatalf("engine burst path allocated %d times over %d instructions (%.4f/instr), want < 0.01/instr",
			allocs, instr, float64(allocs)/float64(instr))
	}
}

// benchEngineInstr measures whole-middleware instruction throughput —
// scheduler, energy accrual, stats, and engine included — with one
// benchmark op per executed instruction.
func benchEngineInstr(b *testing.B, mode ExecMode) {
	d := benchEngineDeployment(b, mode, 2)
	runInstr(b, d, 1_000) // steady state before the clock starts
	start := d.TotalStats().InstrExecuted
	b.ReportAllocs()
	b.ResetTimer()
	runInstr(b, d, start+uint64(b.N))
}

func BenchmarkEngineInstrStep(b *testing.B) { benchEngineInstr(b, ExecStep) }
func BenchmarkEngineInstrAuto(b *testing.B) { benchEngineInstr(b, ExecAuto) }
