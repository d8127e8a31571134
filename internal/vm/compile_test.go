package vm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/agilla-go/agilla/internal/topology"
	ts "github.com/agilla-go/agilla/internal/tuplespace"
)

// The compiled backend is correct iff it is indistinguishable from the
// interpreter: same Outcome stream (including error strings), same
// architectural state after every instruction. These tests run the two
// backends in lockstep over hand-built programs covering every opcode
// family, and a fuzzer does the same over generated programs.

// compiledStep executes one instruction via the compiled backend exactly
// as the engine does: the closure when the PC is a compiled boundary,
// interpreter fallback otherwise (dynamic jumps may land mid-instruction).
func compiledStep(c *Compiled, a *Agent, h Host, out *Outcome) {
	if fn := c.StepAt(a.PC); fn != nil {
		fn(a, h, out)
		return
	}
	*out = Step(a, h)
}

func diffOutcome(want, got Outcome) string {
	var werr, gerr string
	if want.Err != nil {
		werr = want.Err.Error()
	}
	if got.Err != nil {
		gerr = got.Err.Error()
	}
	want.Err, got.Err = nil, nil
	if !reflect.DeepEqual(want, got) {
		return fmt.Sprintf("outcome mismatch:\n  interp:   %+v\n  compiled: %+v", want, got)
	}
	if werr != gerr {
		return fmt.Sprintf("error mismatch:\n  interp:   %q\n  compiled: %q", werr, gerr)
	}
	return ""
}

func diffAgent(want, got *Agent) string {
	if want.PC != got.PC {
		return fmt.Sprintf("PC: interp=%d compiled=%d", want.PC, got.PC)
	}
	if want.Condition != got.Condition {
		return fmt.Sprintf("Condition: interp=%d compiled=%d", want.Condition, got.Condition)
	}
	if !reflect.DeepEqual(want.StackSlice(), got.StackSlice()) {
		return fmt.Sprintf("stack: interp=%v compiled=%v", want.StackSlice(), got.StackSlice())
	}
	if !reflect.DeepEqual(want.Heap, got.Heap) {
		return fmt.Sprintf("heap: interp=%v compiled=%v", want.Heap, got.Heap)
	}
	return ""
}

// goldenHosts builds two independent but identical hosts so interpreter
// and compiled execution observe the same environment.
func goldenHosts(tuples []ts.Tuple, nbrs []topology.Location, randSeq []int16) (*mockHost, *mockHost) {
	mk := func() *mockHost {
		h := newMockHost()
		h.neighbors = append([]topology.Location(nil), nbrs...)
		h.randSeq = append([]int16(nil), randSeq...)
		for _, tp := range tuples {
			if err := h.space.Out(tp); err != nil {
				panic(err)
			}
		}
		return h
	}
	return mk(), mk()
}

// lockstep runs both backends side by side, asserting identical outcomes
// and agent state after every instruction, and returns the terminal
// outcome (halt, error, or block).
func lockstep(t *testing.T, prog []byte, tuples []ts.Tuple, nbrs []topology.Location, randSeq []int16, maxSteps int) Outcome {
	t.Helper()
	c, err := Compile(prog)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	hi, hc := goldenHosts(tuples, nbrs, randSeq)
	ai, ac := NewAgent(7, prog), NewAgent(7, prog)
	var got Outcome // reused across steps, like the engine does
	for i := 0; i < maxSteps; i++ {
		pc := ai.PC
		want := Step(ai, hi)
		compiledStep(c, ac, hc, &got)
		if d := diffOutcome(want, got); d != "" {
			t.Fatalf("step %d (pc=%d): %s", i, pc, d)
		}
		if d := diffAgent(ai, ac); d != "" {
			t.Fatalf("step %d (pc=%d): agent diverged: %s", i, pc, d)
		}
		switch want.Effect {
		case EffectHalt, EffectError, EffectBlocked:
			return want
		}
	}
	t.Fatalf("no terminal outcome within %d steps", maxSteps)
	return Outcome{}
}

func TestCompiledGoldenDiff(t *testing.T) {
	tInt := byte(ts.TypeValue)
	tLoc := byte(ts.TypeLocation)
	tests := []struct {
		name    string
		prog    []byte
		tuples  []ts.Tuple
		nbrs    []topology.Location
		randSeq []int16
		effect  Effect
		errHas  string
	}{
		{
			name: "arith",
			prog: code(
				byte(OpPushc), 7, byte(OpPushc), 3, byte(OpAdd),
				byte(OpPushc), 2, byte(OpSub), byte(OpInc), byte(OpNot),
				byte(OpPushc), 1, byte(OpAnd), byte(OpPushc), 2, byte(OpOr),
				byte(OpHalt)),
			effect: EffectHalt,
		},
		{
			name: "stack-ops",
			prog: code(
				byte(OpPushc), 1, byte(OpPushc), 2, byte(OpDup), byte(OpPop),
				byte(OpSwap), byte(OpPop), byte(OpPop), byte(OpHalt)),
			effect: EffectHalt,
		},
		{
			name: "compare-condition",
			prog: code(
				byte(OpPushc), 1, byte(OpPushc), 2, byte(OpCeq),
				byte(OpPushc), 1, byte(OpPushc), 2, byte(OpCneq),
				byte(OpPushc), 1, byte(OpPushc), 2, byte(OpClt),
				byte(OpPushc), 1, byte(OpPushc), 2, byte(OpCgt),
				byte(OpHalt)),
			effect: EffectHalt,
		},
		{
			name: "compare-push",
			prog: code(
				byte(OpPushc), 1, byte(OpPushc), 2, byte(OpEq), byte(OpPop),
				byte(OpPushc), 1, byte(OpPushc), 2, byte(OpNeq), byte(OpPop),
				byte(OpPushc), 1, byte(OpPushc), 2, byte(OpLt), byte(OpPop),
				byte(OpPushc), 1, byte(OpPushc), 2, byte(OpGt), byte(OpPop),
				byte(OpHalt)),
			effect: EffectHalt,
		},
		{
			name: "immediates",
			prog: code(
				byte(OpPushcl), 0x12, 0x34, byte(OpPop),
				byte(OpPushn), 'f', 'i', 'r', byte(OpPop),
				byte(OpPusht), tInt, byte(OpPop),
				byte(OpPushrt), byte(ts.SensorTemperature), byte(OpPop),
				byte(OpPushloc), 1, 2, byte(OpPop),
				byte(OpHalt)),
			effect: EffectHalt,
		},
		{
			name: "registers",
			prog: code(
				byte(OpLoc), byte(OpPop), byte(OpAid), byte(OpPop),
				byte(OpRand), byte(OpPop), byte(OpHalt)),
			randSeq: []int16{1234},
			effect:  EffectHalt,
		},
		{
			name: "heap",
			prog: code(
				byte(OpPushc), 9, byte(OpSetvar), 3, byte(OpGetvar), 3,
				byte(OpPop), byte(OpGetvar), 5, byte(OpPop), byte(OpHalt)),
			effect: EffectHalt,
		},
		{
			name: "neighbors",
			prog: code(
				byte(OpNumnbrs), byte(OpPop),
				byte(OpPushc), 0, byte(OpGetnbr), byte(OpPop),
				byte(OpPushc), 9, byte(OpGetnbr), byte(OpPop),
				byte(OpRandnbr), byte(OpPop), byte(OpHalt)),
			nbrs:    []topology.Location{topology.Loc(1, 1), topology.Loc(2, 1)},
			randSeq: []int16{1},
			effect:  EffectHalt,
		},
		{
			name: "sense-hit-and-miss",
			prog: code(
				byte(OpPushc), byte(ts.SensorTemperature), byte(OpSense), byte(OpPop),
				byte(OpPushc), 99, byte(OpSense), byte(OpPop),
				byte(OpPushc), 5, byte(OpPutled), byte(OpHalt)),
			effect: EffectHalt,
		},
		{
			name:   "jumps-static",
			prog:   code(byte(OpPushc), 4, byte(OpJumps), byte(OpHalt), byte(OpHalt)),
			effect: EffectHalt,
		},
		{
			name: "rjump-rjumpc",
			prog: code(
				byte(OpRjump), 3, byte(OpHalt),
				byte(OpPushc), 1, byte(OpPushc), 1, byte(OpCeq),
				byte(OpRjumpc), 3, byte(OpHalt), byte(OpHalt)),
			effect: EffectHalt,
		},
		{
			name: "rjumpc-not-taken",
			prog: code(
				byte(OpPushc), 1, byte(OpPushc), 2, byte(OpCeq),
				byte(OpRjumpc), 4, byte(OpPushc), 9, byte(OpHalt)),
			effect: EffectHalt,
		},
		{
			// A computed jumps lands inside pushcl's operands; the
			// compiled backend must fall back to the interpreter there and
			// die with the identical unknown-opcode error.
			name: "jumps-dynamic-misaligned",
			prog: code(
				byte(OpPushc), 7, byte(OpPushc), 0, byte(OpAdd), byte(OpJumps),
				byte(OpPushcl), 0xAB, 0xCD, byte(OpHalt)),
			effect: EffectError,
			errHas: "unknown opcode",
		},
		{
			name: "jumps-dynamic-out-of-range",
			prog: code(
				byte(OpPushc), 100, byte(OpPushc), 100, byte(OpAdd),
				byte(OpJumps), byte(OpHalt)),
			effect: EffectError,
			errHas: "jump target 200",
		},
		{
			name:   "type-mismatch-dies-identically",
			prog:   code(byte(OpPushn), 'f', 'i', 'r', byte(OpInc), byte(OpHalt)),
			effect: EffectError,
			errHas: "inc at pc=4",
		},
		{
			name:   "runtime-underflow-dies-identically",
			prog:   code(byte(OpPushc), 5, byte(OpOut), byte(OpHalt)),
			effect: EffectError,
			errHas: "out at pc=2",
		},
		{
			name: "tuple-out-tcount-rdp-inp",
			prog: code(
				byte(OpPushc), 7, byte(OpPushc), 1, byte(OpOut),
				byte(OpPusht), tInt, byte(OpPushc), 1, byte(OpTcount), byte(OpPop),
				byte(OpPusht), tInt, byte(OpPushc), 1, byte(OpRdp), byte(OpPop), byte(OpPop),
				byte(OpPusht), tLoc, byte(OpPushc), 1, byte(OpInp),
				byte(OpHalt)),
			tuples: []ts.Tuple{{Fields: []ts.Value{ts.Int(42)}}},
			effect: EffectHalt,
		},
		{
			name: "blocking-in-hit",
			prog: code(
				byte(OpPusht), tInt, byte(OpPushc), 1, byte(OpIn),
				byte(OpPop), byte(OpPop), byte(OpHalt)),
			tuples: []ts.Tuple{{Fields: []ts.Value{ts.Int(42)}}},
			effect: EffectHalt,
		},
		{
			name: "blocking-in-miss",
			prog: code(
				byte(OpPusht), tLoc, byte(OpPushc), 1, byte(OpIn), byte(OpHalt)),
			effect: EffectBlocked,
		},
		{
			name: "blocking-rd-miss",
			prog: code(
				byte(OpPusht), tLoc, byte(OpPushc), 1, byte(OpRd), byte(OpHalt)),
			effect: EffectBlocked,
		},
		{
			name: "reactions",
			prog: code(
				byte(OpPusht), tLoc, byte(OpPushc), 1, byte(OpPushcl), 0, 14,
				byte(OpRegrxn),
				byte(OpPusht), tLoc, byte(OpPushc), 1, byte(OpDeregrxn),
				byte(OpHalt), byte(OpHalt)),
			effect: EffectHalt,
		},
		{
			name: "regrxn-dynamic-bad-addr",
			prog: code(
				byte(OpPusht), tInt, byte(OpPushc), 1,
				byte(OpPushc), 50, byte(OpPushc), 49, byte(OpAdd),
				byte(OpRegrxn), byte(OpHalt)),
			effect: EffectError,
			errHas: "reaction address 99",
		},
		{
			name:   "sleep-then-halt",
			prog:   code(byte(OpPushc), 4, byte(OpSleep), byte(OpHalt)),
			effect: EffectHalt,
		},
		{
			name:   "wait-then-halt",
			prog:   code(byte(OpWait), byte(OpHalt)),
			effect: EffectHalt,
		},
		{
			name: "migrations",
			prog: code(
				byte(OpPushloc), 1, 1, byte(OpSmove),
				byte(OpPushloc), 1, 2, byte(OpWmove),
				byte(OpPushloc), 2, 1, byte(OpSclone),
				byte(OpPushloc), 2, 2, byte(OpWclone),
				byte(OpHalt)),
			effect: EffectHalt,
		},
		{
			name: "remote-ops",
			prog: code(
				byte(OpPushc), 5, byte(OpPushc), 1, byte(OpPushloc), 1, 1, byte(OpRout),
				byte(OpPusht), tInt, byte(OpPushc), 1, byte(OpPushloc), 1, 1, byte(OpRinp),
				byte(OpPusht), tInt, byte(OpPushc), 1, byte(OpPushloc), 1, 1, byte(OpRrdp),
				byte(OpHalt)),
			effect: EffectHalt,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out := lockstep(t, tt.prog, tt.tuples, tt.nbrs, tt.randSeq, 200)
			if out.Effect != tt.effect {
				t.Fatalf("terminal effect = %v, want %v (err=%v)", out.Effect, tt.effect, out.Err)
			}
			if tt.errHas != "" && (out.Err == nil || !strings.Contains(out.Err.Error(), tt.errHas)) {
				t.Fatalf("error = %v, want substring %q", out.Err, tt.errHas)
			}
		})
	}
}

func TestCompileRejectsUnverifiable(t *testing.T) {
	for _, bad := range [][]byte{
		nil,                         // empty program
		{0xff},                      // unknown opcode
		{byte(OpPushc)},             // truncated operands
		{byte(OpPushc), 1},          // runs off the end
		{byte(OpGetvar), 200, 0x00}, // heap index out of range
	} {
		if _, err := Compile(bad); err == nil {
			t.Fatalf("Compile(%v) succeeded, want error", bad)
		}
	}
}

func TestBurstPlans(t *testing.T) {
	// Every instruction boundary has a closure; operand bytes and PCs past
	// the end have none.
	prog := code(byte(OpPushc), 1, byte(OpPushc), 2, byte(OpAdd), byte(OpHalt))
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if c.StepAt(1) != nil {
		t.Error("StepAt(1) inside pushc operands should be nil")
	}
	if c.StepAt(0) == nil || c.StepAt(5) == nil {
		t.Error("StepAt at instruction boundaries should be non-nil")
	}
	if c.StepAt(99) != nil {
		t.Error("StepAt past the end should be nil")
	}
}

func TestCompileCache(t *testing.T) {
	cc := NewCache()
	prog := code(byte(OpPushc), 1, byte(OpPop), byte(OpHalt))
	c1 := cc.Get(prog)
	c2 := cc.Get(append([]byte(nil), prog...)) // different backing array, same content
	if c1 == nil || c1 != c2 {
		t.Fatalf("cache did not memoize: %p vs %p", c1, c2)
	}
	bad := []byte{0xff}
	if cc.Get(bad) != nil || cc.Get(bad) != nil {
		t.Fatal("unverifiable code should cache as nil")
	}
}

// fuzzPool is the instruction alphabet for generated programs. Operand
// bytes come from the fuzz input; heap indices are clamped so programs
// survive verification often enough to be useful.
var fuzzPool = []Op{
	OpLoc, OpAid, OpRand, OpDup, OpPop, OpSwap,
	OpAdd, OpSub, OpAnd, OpOr, OpNot, OpInc,
	OpCeq, OpCneq, OpClt, OpCgt, OpEq, OpNeq, OpLt, OpGt,
	OpJumps, OpGetvar, OpSetvar,
	OpSleep, OpWait, OpPutled, OpSense,
	OpPushc, OpPushcl, OpPushn, OpPusht, OpPushrt, OpPushloc,
	OpNumnbrs, OpGetnbr, OpRandnbr,
	OpTcount, OpOut, OpInp, OpRdp, OpIn, OpRd,
	OpRegrxn, OpDeregrxn,
	OpSmove, OpWmove, OpSclone, OpWclone,
	OpRout, OpRinp, OpRrdp,
}

func fuzzProgram(data []byte) []byte {
	var prog []byte
	for i := 0; i < len(data); {
		op := fuzzPool[int(data[i])%len(fuzzPool)]
		info := infoTable[op]
		i++
		args := make([]byte, info.Operands)
		for j := range args {
			if i < len(data) {
				args[j] = data[i]
				i++
			}
		}
		switch info.Kind {
		case OperandHeap:
			args[0] %= HeapSlots
		case OperandName3:
			args[0], args[1], args[2] = 'f', 'i', 'r'
		}
		prog = append(prog, byte(op))
		prog = append(prog, args...)
	}
	return append(prog, byte(OpHalt))
}

func FuzzCompiledVsInterpreted(f *testing.F) {
	f.Add([]byte{7, 1, 7, 2, 6})                     // arithmetic
	f.Add([]byte{27, 42, 27, 1, 37, 30, 27, 1, 36})  // pushes + tuple traffic
	f.Add([]byte{32, 3, 33, 0, 44, 20})              // immediates + migration
	f.Add([]byte{27, 4, 27, 0, 6, 20, 28, 0, 9, 0})  // computed jumps
	f.Add([]byte{2, 23, 3, 34, 35, 26, 0, 25, 5, 5}) // host queries
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := fuzzProgram(data)
		if _, err := Verify(prog); err != nil {
			t.Skip("unverifiable program")
		}
		c, err := Compile(prog)
		if err != nil {
			t.Fatalf("verified program failed to compile: %v", err)
		}
		tuples := []ts.Tuple{
			{Fields: []ts.Value{ts.Int(42)}},
			{Fields: []ts.Value{ts.Str("fir")}},
			{Fields: []ts.Value{ts.LocV(topology.Loc(3, 3))}},
		}
		nbrs := []topology.Location{topology.Loc(1, 1), topology.Loc(2, 1)}
		randSeq := []int16{5, 1, 3, 7, 2, 9, 11, 4}
		hi, hc := goldenHosts(tuples, nbrs, randSeq)
		ai, ac := NewAgent(7, prog), NewAgent(7, prog)
		var got Outcome
		for i := 0; i < 300; i++ {
			pc := ai.PC
			want := Step(ai, hi)
			compiledStep(c, ac, hc, &got)
			if d := diffOutcome(want, got); d != "" {
				t.Fatalf("step %d (pc=%d, prog=%#v): %s", i, pc, prog, d)
			}
			if d := diffAgent(ai, ac); d != "" {
				t.Fatalf("step %d (pc=%d, prog=%#v): agent diverged: %s", i, pc, prog, d)
			}
			switch want.Effect {
			case EffectHalt, EffectError, EffectBlocked:
				return
			}
		}
	})
}
