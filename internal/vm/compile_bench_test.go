package vm

import (
	"testing"
)

// The hot instruction loop `pushc 1; pushc 2; add; pop; rjump -6`: five
// instructions, no host effects, stack balanced — the shape the engine's
// in-place step chain runs inside single events.
func benchLoopCode() []byte {
	return code(
		byte(OpPushc), 1,
		byte(OpPushc), 2,
		byte(OpAdd),
		byte(OpPop),
		byte(OpRjump), 0xFA, // -6: back to the top
	)
}

func benchAgent(codeBytes []byte) (*Agent, *mockHost) {
	return &Agent{ID: 1, Code: codeBytes}, newMockHost()
}

// TestCompiledStepZeroAlloc pins the compiled dispatch path at exactly
// zero heap allocations per instruction: the closures write into a
// caller-owned Outcome and everything else was hoisted at compile time.
func TestCompiledStepZeroAlloc(t *testing.T) {
	prog, err := Compile(benchLoopCode())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	a, h := benchAgent(benchLoopCode())
	var out Outcome
	// Warm once so lazy paths (none expected) are out of the measurement.
	prog.StepAt(a.PC)(a, h, &out)
	a.PC, a.sp = 0, 0

	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 5; i++ { // one full loop revolution
			prog.StepAt(a.PC)(a, h, &out)
			if out.Effect != EffectNone {
				t.Fatalf("unexpected effect %v at pc=%d: %v", out.Effect, a.PC, out.Err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("compiled step allocated %.1f times per 5-instruction loop, want 0", allocs)
	}
}

// TestInterpretedStepZeroAlloc pins the interpreter on the same loop:
// the engine falls back to Step between compiled boundaries, so
// that path must stay allocation-free too.
func TestInterpretedStepZeroAlloc(t *testing.T) {
	a, h := benchAgent(benchLoopCode())
	var out Outcome
	out = Step(a, h)
	if out.Effect != EffectNone {
		t.Fatalf("warm-up step: %v", out.Err)
	}
	a.PC, a.sp = 0, 0

	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 5; i++ {
			out = Step(a, h)
			if out.Effect != EffectNone {
				t.Fatalf("unexpected effect %v at pc=%d: %v", out.Effect, a.PC, out.Err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("interpreted step allocated %.1f times per 5-instruction loop, want 0", allocs)
	}
}

// BenchmarkInterpretedStep measures the seed decode-dispatch interpreter
// on the hot loop (ns and allocs per instruction).
func BenchmarkInterpretedStep(b *testing.B) {
	a, h := benchAgent(benchLoopCode())
	var out Outcome
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = Step(a, h)
		if out.Effect != EffectNone {
			b.Fatalf("effect %v: %v", out.Effect, out.Err)
		}
	}
}

// BenchmarkCompiledStep measures the compiled-closure backend on the
// same loop — the per-instruction speedup over BenchmarkInterpretedStep
// is the operand-decode and bounds-check work hoisted to compile time.
func BenchmarkCompiledStep(b *testing.B) {
	prog, err := Compile(benchLoopCode())
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	a, h := benchAgent(benchLoopCode())
	var out Outcome
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.StepAt(a.PC)(a, h, &out)
		if out.Effect != EffectNone {
			b.Fatalf("effect %v: %v", out.Effect, out.Err)
		}
	}
}
