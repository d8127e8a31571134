package vm

import (
	"strings"
	"testing"

	"github.com/agilla-go/agilla/internal/topology"
	ts "github.com/agilla-go/agilla/internal/tuplespace"
)

func analyzeOK(t *testing.T, code []byte) AnalysisReport {
	t.Helper()
	rep, err := Analyze(code, DefaultEnergyCosts())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return rep
}

func findingWith(rep AnalysisReport, sev Severity, substr string) bool {
	for _, f := range rep.Findings {
		if f.Severity == sev && strings.Contains(f.Msg, substr) {
			return true
		}
	}
	return false
}

func TestAnalyzeCleanProgram(t *testing.T) {
	// pushc 7; setvar 2; getvar 2; putled; halt
	prog := code(byte(OpPushc), 7, byte(OpSetvar), 2, byte(OpGetvar), 2, byte(OpPutled), byte(OpHalt))
	rep := analyzeOK(t, prog)
	if len(rep.Findings) != 0 {
		t.Fatalf("findings = %v, want none", rep.Findings)
	}
	if rep.EnergyUnbounded {
		t.Fatal("EnergyUnbounded on a straight-line program")
	}
	if want := 5 * DefaultEnergyCosts().InstrNJ; rep.EnergyBoundNJ != want {
		t.Fatalf("EnergyBoundNJ = %d, want %d", rep.EnergyBoundNJ, want)
	}
	if rep.HeapWritten != 1<<2 || rep.HeapRead != 1<<2 {
		t.Fatalf("heap masks = %b/%b, want slot 2 in both", rep.HeapWritten, rep.HeapRead)
	}
}

func TestAnalyzeHeapReadUnderDynamicJumps(t *testing.T) {
	// pushc 6; setvar 2; getvar 2; jumps; halt — the jumps target comes
	// off the heap, so the analysis is conservative; the heap masks are
	// whole-program facts and must be reported all the same.
	prog := code(byte(OpPushc), 6, byte(OpSetvar), 2, byte(OpGetvar), 2, byte(OpJumps), byte(OpHalt))
	rep := analyzeOK(t, prog)
	if !rep.DynamicJumps {
		t.Fatal("the jumps must be dynamic for this test to mean anything")
	}
	if rep.HeapWritten != 1<<2 || rep.HeapRead != 1<<2 {
		t.Fatalf("heap masks = %b/%b, want slot 2 in both", rep.HeapWritten, rep.HeapRead)
	}
}

func TestAnalyzeTypeMismatch(t *testing.T) {
	// pushc 5; smove; halt — smove needs a location, every path pushes a
	// number.
	prog := code(byte(OpPushc), 5, byte(OpSmove), byte(OpHalt))
	rep, err := Analyze(prog, DefaultEnergyCosts())
	if err == nil {
		t.Fatal("Analyze accepted smove of a number")
	}
	if !findingWith(rep, SevError, "type mismatch") {
		t.Fatalf("findings = %v, want a type mismatch error", rep.Findings)
	}
}

func TestAnalyzeReadNeverWritten(t *testing.T) {
	// getvar 3; pop; halt — slot 3 is never written anywhere.
	prog := code(byte(OpGetvar), 3, byte(OpPop), byte(OpHalt))
	rep, err := Analyze(prog, DefaultEnergyCosts())
	if err == nil {
		t.Fatal("Analyze accepted a read of a never-written heap slot")
	}
	if !findingWith(rep, SevError, "ever writes") {
		t.Fatalf("findings = %v, want a read-before-write error", rep.Findings)
	}
}

func TestAnalyzeDeadCode(t *testing.T) {
	// halt; pushc 1; pop — everything after halt is unreachable.
	prog := code(byte(OpHalt), byte(OpPushc), 1, byte(OpPop), byte(OpHalt))
	rep := analyzeOK(t, prog)
	if !findingWith(rep, SevWarning, "unreachable code") {
		t.Fatalf("findings = %v, want an unreachable-code warning", rep.Findings)
	}
	if len(rep.UnreachablePCs) != 3 {
		t.Fatalf("UnreachablePCs = %v, want pcs 1,3,4", rep.UnreachablePCs)
	}
}

func TestAnalyzeUnreachableReaction(t *testing.T) {
	// rjump +10 (to halt); pusht 0; pushc 1; pushcl 11; regrxn; halt;
	// pop; halt — the registration block is dead, so the reaction entry
	// at 11 can never be registered.
	prog := code(
		byte(OpRjump), 10, // 0: -> 10
		byte(OpPusht), 0, // 2
		byte(OpPushc), 1, // 4
		byte(OpPushcl), 0, 11, // 6
		byte(OpRegrxn), // 9
		byte(OpHalt),   // 10
		byte(OpPop),    // 11: reaction entry
		byte(OpHalt),   // 12
	)
	rep := analyzeOK(t, prog)
	if !findingWith(rep, SevWarning, "unreachable reaction") {
		t.Fatalf("findings = %v, want an unreachable-reaction warning", rep.Findings)
	}
}

func TestAnalyzeReactionFlow(t *testing.T) {
	// pusht 0; pushc 1; pushcl 9; regrxn; wait; pop; halt — the entry at
	// 9 is live only through the registered reaction.
	prog := code(
		byte(OpPusht), 0, // 0
		byte(OpPushc), 1, // 2
		byte(OpPushcl), 0, 9, // 4
		byte(OpRegrxn), // 7
		byte(OpWait),   // 8
		byte(OpPop),    // 9: reaction entry
		byte(OpHalt),   // 10
	)
	rep := analyzeOK(t, prog)
	if len(rep.Findings) != 0 {
		t.Fatalf("findings = %v, want none", rep.Findings)
	}
	if rep.EnergyUnbounded {
		t.Fatal("EnergyUnbounded with a wait-gated reaction")
	}
	if len(rep.BurstEntries) != 2 || rep.BurstEntries[0] != 0 || rep.BurstEntries[1] != 9 {
		t.Fatalf("BurstEntries = %v, want [0 9]", rep.BurstEntries)
	}
}

func TestAnalyzeBusyLoopUnbounded(t *testing.T) {
	// L: pushc 1; pop; rjump L — never yields.
	prog := code(byte(OpPushc), 1, byte(OpPop), byte(OpRjump), 0xfd)
	rep := analyzeOK(t, prog)
	if !rep.EnergyUnbounded {
		t.Fatal("busy loop not reported EnergyUnbounded")
	}
	if !findingWith(rep, SevWarning, "unbounded energy") {
		t.Fatalf("findings = %v, want an unbounded-energy warning", rep.Findings)
	}
}

func TestAnalyzeSleepLoopBounded(t *testing.T) {
	// L: pushc 1; sleep; rjump L — every lap yields, so the burst bound
	// is rjump+pushc+sleep.
	prog := code(byte(OpPushc), 1, byte(OpSleep), byte(OpRjump), 0xfd)
	rep := analyzeOK(t, prog)
	if rep.EnergyUnbounded {
		t.Fatalf("sleep loop reported unbounded (pc %d)", rep.UnboundedPC)
	}
	if want := 3 * DefaultEnergyCosts().InstrNJ; rep.EnergyBoundNJ != want {
		t.Fatalf("EnergyBoundNJ = %d, want %d", rep.EnergyBoundNJ, want)
	}
	if len(rep.BurstEntries) != 2 || rep.BurstEntries[0] != 0 || rep.BurstEntries[1] != 3 {
		t.Fatalf("BurstEntries = %v, want [0 3]", rep.BurstEntries)
	}
}

func TestAnalyzeBlockingRead(t *testing.T) {
	// pusht 0; pushc 1; in; pop; halt — straight-line blocking read:
	// bounded, and the in itself is a burst entry (the retry after a
	// wake-up re-executes it).
	prog := code(
		byte(OpPusht), 0, // 0
		byte(OpPushc), 1, // 2
		byte(OpIn),   // 4
		byte(OpPop),  // 5
		byte(OpHalt), // 6
	)
	rep := analyzeOK(t, prog)
	if rep.EnergyUnbounded {
		t.Fatalf("blocking read reported unbounded (pc %d)", rep.UnboundedPC)
	}
	found := false
	for _, e := range rep.BurstEntries {
		if e == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("BurstEntries = %v, want the blocking in at 4", rep.BurstEntries)
	}
}

func TestAnalyzeBlockingLoopUnbounded(t *testing.T) {
	// L: pusht 0; pushc 1; in; pop; rjump L — a hit continues the burst,
	// so with a steady tuple supply the loop never yields: the sound
	// answer is unbounded.
	prog := code(
		byte(OpPusht), 0, // 0
		byte(OpPushc), 1, // 2
		byte(OpIn),          // 4
		byte(OpPop),         // 5
		byte(OpRjump), 0xfa, // 6: -> 0
	)
	rep := analyzeOK(t, prog)
	if !rep.EnergyUnbounded {
		t.Fatal("tuple-fed blocking loop not reported EnergyUnbounded")
	}
}

func TestAnalyzePollingLoopUnbounded(t *testing.T) {
	// L: pusht 0; pushc 1; rdp; rjump L — non-blocking probe never
	// yields: a busy poll.
	prog := code(
		byte(OpPusht), 0, // 0
		byte(OpPushc), 1, // 2
		byte(OpRdp),         // 4
		byte(OpRjump), 0xfb, // 5: -> 0
	)
	rep := analyzeOK(t, prog)
	if !rep.EnergyUnbounded {
		t.Fatal("polling loop not reported EnergyUnbounded")
	}
}

func TestAnalyzeGuaranteedUnderflow(t *testing.T) {
	// pusht 0; pushc 1; out; pop; halt — out consumes the field and its
	// count exactly, so the pop always underflows. Verify's interval
	// analysis cannot see this (out's worst-case pop is the whole
	// stack), the exact analysis can.
	prog := code(byte(OpPusht), 0, byte(OpPushc), 1, byte(OpOut), byte(OpPop), byte(OpHalt))
	if _, verr := Verify(prog); verr != nil {
		t.Fatalf("Verify rejected the program: %v", verr)
	}
	rep, err := Analyze(prog, DefaultEnergyCosts())
	if err == nil {
		t.Fatal("Analyze accepted a guaranteed underflow")
	}
	if !findingWith(rep, SevError, "guaranteed stack underflow") {
		t.Fatalf("findings = %v, want a guaranteed-underflow error", rep.Findings)
	}
}

func TestAnalyzeJumpsTargetedDirectly(t *testing.T) {
	// pushc 1; rjumpc +4 (to the jumps itself); pushc 8; jumps; pop;
	// halt — the jumps can be entered without its feeding push, so its
	// target is not static and the analysis must go conservative.
	prog := code(
		byte(OpPushc), 1, // 0
		byte(OpRjumpc), 4, // 2: -> 6
		byte(OpPushc), 8, // 4
		byte(OpJumps), // 6
		byte(OpPop),   // 7
		byte(OpHalt),  // 8
	)
	rep, err := Analyze(prog, DefaultEnergyCosts())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !rep.DynamicJumps {
		t.Fatal("a directly-targeted jumps must be demoted to dynamic")
	}
	if !rep.EnergyUnbounded {
		t.Fatal("dynamic control flow must leave the energy bound open")
	}
}

func TestAnalyzeTrustedJumps(t *testing.T) {
	// pushc 4; jumps; (skipped: pop); halt at 4.
	prog := code(byte(OpPushc), 4, byte(OpJumps), byte(OpPop), byte(OpHalt))
	rep := analyzeOK(t, prog)
	if rep.DynamicJumps {
		t.Fatal("an idiomatic pushc-feeds-jumps pair must stay static")
	}
	if !findingWith(rep, SevWarning, "unreachable code") {
		t.Fatalf("findings = %v, want the skipped pop flagged dead", rep.Findings)
	}
}

func TestAnalyzeVerifyErrorPropagates(t *testing.T) {
	rep, err := Analyze(code(byte(OpPop)), DefaultEnergyCosts())
	if err == nil {
		t.Fatal("Analyze accepted an underflowing program")
	}
	if len(rep.VerifyReport.Errors) == 0 {
		t.Fatal("verify errors not carried into the analysis report")
	}
}

// FuzzAnalyzeSoundness is the analysis soundness property: on any
// program Analyze admits, the interpreter never exceeds the static
// stack bound, and never draws more energy inside one wakeful burst
// than the static per-burst bound.
func FuzzAnalyzeSoundness(f *testing.F) {
	f.Add(code(byte(OpPushc), 7, byte(OpSetvar), 2, byte(OpGetvar), 2, byte(OpPutled), byte(OpHalt)))
	f.Add(code(byte(OpPushc), 1, byte(OpSleep), byte(OpRjump), 0xfd))
	f.Add(code(byte(OpPusht), 0, byte(OpPushc), 1, byte(OpIn), byte(OpPop), byte(OpRjump), 0xfa))
	f.Add(code(byte(OpPushc), 4, byte(OpJumps), byte(OpPop), byte(OpHalt)))
	f.Add(code(byte(OpPushc), 0, byte(OpSense), byte(OpPushcl), 0, 200, byte(OpCgt), byte(OpRjumpc), 2, byte(OpHalt), byte(OpLoc), byte(OpSmove), byte(OpHalt)))
	f.Add(code(byte(OpPusht), 0, byte(OpPushc), 1, byte(OpPushcl), 0, 9, byte(OpRegrxn), byte(OpWait), byte(OpPop), byte(OpHalt)))
	f.Add(code(byte(OpNumnbrs), byte(OpGetnbr), byte(OpWclone), byte(OpHalt)))

	costs := DefaultEnergyCosts()
	f.Fuzz(func(t *testing.T, prog []byte) {
		rep, err := Analyze(prog, costs)
		if err != nil {
			return // not admitted; no claim
		}
		h := newMockHost()
		h.neighbors = []topology.Location{topology.Loc(1, 2), topology.Loc(3, 2)}
		// A few tuples so local probes and blocking reads sometimes hit
		// (exercising the VarOut push paths).
		_ = h.space.Out(ts.Tuple{Fields: []ts.Value{ts.Int(1)}})
		_ = h.space.Out(ts.Tuple{Fields: []ts.Value{ts.TypeV(0), ts.Int(2)}})

		a := NewAgent(7, prog)
		var burst uint64
		for steps := 0; steps < 4096; steps++ {
			out := Step(a, h)
			if out.Effect == EffectError {
				// The agent died mid-instruction; the analysis only
				// bounds completed execution.
				return
			}
			burst += costs.OpCostNJ(out.Op, len(prog))
			if !rep.MayOverflow && a.StackDepthUsed() > rep.MaxStackDepth {
				t.Fatalf("stack %d exceeds static bound %d after %s at pc=%d",
					a.StackDepthUsed(), rep.MaxStackDepth, out.Op, a.PC)
			}
			if !rep.EnergyUnbounded && burst > rep.EnergyBoundNJ {
				t.Fatalf("burst energy %d nJ exceeds static bound %d nJ after %s at pc=%d",
					burst, rep.EnergyBoundNJ, out.Op, a.PC)
			}
			switch out.Effect {
			case EffectNone:
			case EffectSleep:
				burst = 0
			case EffectMigrate:
				// Continue locally on the failed-migration path.
				burst = 0
				a.Condition = 0
			case EffectRemote:
				// Simulate a miss reply: condition cleared, nothing
				// pushed, execution continues at the advanced PC.
				burst = 0
				a.Condition = 0
			default: // Halt, Wait, Blocked
				return
			}
		}
	})
}
