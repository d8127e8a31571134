package vm

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/topology"
	ts "github.com/agilla-go/agilla/internal/tuplespace"
)

// mockHost implements Host over in-memory structures.
type mockHost struct {
	loc       topology.Location
	neighbors []topology.Location
	sensors   map[ts.SensorType]int16
	space     *ts.Space
	registry  *ts.Registry
	led       int16
	scratch   Scratch
	randSeq   []int16
	randIdx   int
}

func newMockHost() *mockHost {
	return &mockHost{
		loc:      topology.Loc(2, 2),
		sensors:  map[ts.SensorType]int16{ts.SensorTemperature: 250},
		space:    ts.NewSpace(0),
		registry: ts.NewRegistry(0, 0),
	}
}

func (m *mockHost) Loc() topology.Location { return m.loc }

func (m *mockHost) RandInt16(n int16) int16 {
	if m.randIdx < len(m.randSeq) {
		v := m.randSeq[m.randIdx]
		m.randIdx++
		return v % n
	}
	return 0
}

func (m *mockHost) NumNeighbors() int { return len(m.neighbors) }

func (m *mockHost) Neighbor(i int) (topology.Location, bool) {
	if i < 0 || i >= len(m.neighbors) {
		return topology.Location{}, false
	}
	return m.neighbors[i], true
}

func (m *mockHost) Sense(s ts.SensorType) (int16, bool) {
	v, ok := m.sensors[s]
	return v, ok
}

func (m *mockHost) SetLED(v int16) { m.led = v }

func (m *mockHost) Scratch() *Scratch                    { return &m.scratch }
func (m *mockHost) TSOut(t ts.Tuple) error               { return m.space.Out(t) }
func (m *mockHost) TSCount(p ts.Template) int            { return m.space.Count(p) }
func (m *mockHost) RegisterReaction(r ts.Reaction) error { return m.registry.Register(r) }
func (m *mockHost) TSInp(p ts.Template, dst []ts.Value) (ts.Tuple, bool) {
	return m.space.Lookup(p, true, dst)
}
func (m *mockHost) TSRdp(p ts.Template, dst []ts.Value) (ts.Tuple, bool) {
	return m.space.Lookup(p, false, dst)
}
func (m *mockHost) DeregisterReaction(id uint16, p ts.Template) bool {
	return m.registry.Deregister(id, p)
}

// run executes the agent until halt, error, or maxSteps, returning the
// last outcome.
func run(t *testing.T, a *Agent, h Host, maxSteps int) Outcome {
	t.Helper()
	var out Outcome
	for i := 0; i < maxSteps; i++ {
		out = Step(a, h)
		switch out.Effect {
		case EffectNone:
			continue
		default:
			return out
		}
	}
	return out
}

func code(ops ...byte) []byte { return ops }

func TestHalt(t *testing.T) {
	a := NewAgent(1, code(byte(OpHalt)))
	out := Step(a, newMockHost())
	if out.Effect != EffectHalt {
		t.Fatalf("effect = %v", out.Effect)
	}
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		name string
		prog []byte
		want int16
	}{
		{"add", code(byte(OpPushc), 7, byte(OpPushc), 3, byte(OpAdd), byte(OpHalt)), 10},
		{"sub", code(byte(OpPushc), 7, byte(OpPushc), 3, byte(OpSub), byte(OpHalt)), 4},
		{"and", code(byte(OpPushc), 6, byte(OpPushc), 3, byte(OpAnd), byte(OpHalt)), 2},
		{"or", code(byte(OpPushc), 6, byte(OpPushc), 3, byte(OpOr), byte(OpHalt)), 7},
		{"inc", code(byte(OpPushc), 6, byte(OpInc), byte(OpHalt)), 7},
		{"not", code(byte(OpPushc), 0, byte(OpNot), byte(OpHalt)), -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := NewAgent(1, tt.prog)
			out := run(t, a, newMockHost(), 10)
			if out.Effect != EffectHalt {
				t.Fatalf("effect = %v err = %v", out.Effect, out.Err)
			}
			v, err := a.Pop()
			if err != nil || v.A != tt.want {
				t.Fatalf("result = %v,%v want %d", v, err, tt.want)
			}
		})
	}
}

func TestPushclSignExtension(t *testing.T) {
	// pushcl with -200 (0xFF38)
	a := NewAgent(1, code(byte(OpPushcl), 0xFF, 0x38, byte(OpHalt)))
	run(t, a, newMockHost(), 5)
	v, err := a.Pop()
	if err != nil || v.A != -200 {
		t.Fatalf("pushcl = %v,%v want -200", v, err)
	}
}

func TestPushn(t *testing.T) {
	a := NewAgent(1, code(byte(OpPushn), 'f', 'i', 'r', byte(OpHalt)))
	run(t, a, newMockHost(), 5)
	v, _ := a.Pop()
	if v.Kind != ts.KindString || v.Name() != "fir" {
		t.Fatalf("pushn = %v", v)
	}
	// Short names pad with NUL which must strip.
	a = NewAgent(1, code(byte(OpPushn), 'o', 'k', 0, byte(OpHalt)))
	run(t, a, newMockHost(), 5)
	v, _ = a.Pop()
	if v.Name() != "ok" {
		t.Fatalf("pushn short = %q", v.Name())
	}
}

func TestPushlocNegativeCoords(t *testing.T) {
	a := NewAgent(1, code(byte(OpPushloc), 0xFF, 2, byte(OpHalt))) // (-1, 2)
	run(t, a, newMockHost(), 5)
	v, _ := a.Pop()
	if v.Kind != ts.KindLocation || v.A != -1 || v.B != 2 {
		t.Fatalf("pushloc = %v", v)
	}
}

func TestLocAidNumnbrs(t *testing.T) {
	h := newMockHost()
	h.neighbors = []topology.Location{topology.Loc(1, 2), topology.Loc(3, 2)}
	a := NewAgent(77, code(byte(OpLoc), byte(OpAid), byte(OpNumnbrs), byte(OpHalt)))
	run(t, a, h, 5)
	n, _ := a.PopInt()
	if n != 2 {
		t.Fatalf("numnbrs = %d", n)
	}
	id, _ := a.Pop()
	if id.Kind != ts.KindAgentID || uint16(id.A) != 77 {
		t.Fatalf("aid = %v", id)
	}
	l, _ := a.PopLoc()
	if l.Loc() != topology.Loc(2, 2) {
		t.Fatalf("loc = %v", l)
	}
}

func TestGetnbrAndCondition(t *testing.T) {
	h := newMockHost()
	h.neighbors = []topology.Location{topology.Loc(1, 2)}
	a := NewAgent(1, code(byte(OpPushc), 0, byte(OpGetnbr), byte(OpHalt)))
	run(t, a, h, 5)
	if a.Condition != 1 {
		t.Fatal("condition not set on valid neighbor")
	}
	v, _ := a.PopLoc()
	if v.Loc() != topology.Loc(1, 2) {
		t.Fatalf("getnbr = %v", v)
	}
	// Out-of-range index clears the condition.
	a = NewAgent(1, code(byte(OpPushc), 9, byte(OpGetnbr), byte(OpHalt)))
	run(t, a, h, 5)
	if a.Condition != 0 {
		t.Fatal("condition not cleared on bad index")
	}
}

func TestRandnbr(t *testing.T) {
	h := newMockHost()
	h.neighbors = []topology.Location{topology.Loc(1, 2), topology.Loc(3, 2)}
	h.randSeq = []int16{1}
	a := NewAgent(1, code(byte(OpRandnbr), byte(OpHalt)))
	run(t, a, h, 5)
	v, _ := a.PopLoc()
	if v.Loc() != topology.Loc(3, 2) || a.Condition != 1 {
		t.Fatalf("randnbr = %v cond=%d", v, a.Condition)
	}
	// No neighbors: condition cleared.
	h2 := newMockHost()
	a = NewAgent(1, code(byte(OpRandnbr), byte(OpHalt)))
	run(t, a, h2, 5)
	if a.Condition != 0 {
		t.Fatal("condition should clear with no neighbors")
	}
}

func TestConditionComparisons(t *testing.T) {
	// Figure 13 idiom: sense-value 250 on stack, pushcl 200, clt ->
	// condition set because 250 > 200.
	a := NewAgent(1, code(
		byte(OpPushcl), 0, 250,
		byte(OpPushcl), 0, 200,
		byte(OpClt), byte(OpHalt)))
	run(t, a, newMockHost(), 10)
	if a.Condition != 1 {
		t.Fatal("clt: condition should be 1 when beneath > top")
	}
	a = NewAgent(1, code(
		byte(OpPushcl), 0, 150,
		byte(OpPushcl), 0, 200,
		byte(OpClt), byte(OpHalt)))
	run(t, a, newMockHost(), 10)
	if a.Condition != 0 {
		t.Fatal("clt: condition should be 0 when beneath < top")
	}
}

func TestComparePush(t *testing.T) {
	tests := []struct {
		op   Op
		a, b byte // pushed in order a then b
		want int16
	}{
		{OpEq, 5, 5, 1},
		{OpEq, 5, 6, 0},
		{OpNeq, 5, 6, 1},
		{OpLt, 7, 5, 1}, // beneath(7) > top(5) -> top < beneath
		{OpLt, 3, 5, 0},
		{OpGt, 3, 5, 1}, // top(5) > beneath(3)
		{OpGt, 7, 5, 0},
	}
	for _, tt := range tests {
		a := NewAgent(1, code(byte(OpPushc), tt.a, byte(OpPushc), tt.b, byte(tt.op), byte(OpHalt)))
		run(t, a, newMockHost(), 10)
		v, err := a.PopInt()
		if err != nil || v != tt.want {
			t.Errorf("%v(%d,%d) = %d,%v want %d", tt.op, tt.a, tt.b, v, err, tt.want)
		}
	}
}

func TestJumps(t *testing.T) {
	// rjump +3 skips the halt: 0: rjump +3; 2: halt; 3: pushc 9; 5: halt
	a := NewAgent(1, code(byte(OpRjump), 3, byte(OpHalt), byte(OpPushc), 9, byte(OpHalt)))
	out := run(t, a, newMockHost(), 10)
	if out.Effect != EffectHalt || a.PC != 5 {
		t.Fatalf("rjump landed wrong: pc=%d", a.PC)
	}
	v, _ := a.PopInt()
	if v != 9 {
		t.Fatalf("value = %d", v)
	}
}

func TestRjumpcTakenAndNot(t *testing.T) {
	// condition=0: falls through to halt at pc=2.
	prog := code(byte(OpRjumpc), 3, byte(OpHalt), byte(OpPushc), 9, byte(OpHalt))
	a := NewAgent(1, prog)
	run(t, a, newMockHost(), 10)
	if a.PC != 2 {
		t.Fatalf("not-taken pc = %d, want 2", a.PC)
	}
	a = NewAgent(1, prog)
	a.Condition = 1
	run(t, a, newMockHost(), 10)
	if a.PC != 5 {
		t.Fatalf("taken pc = %d, want 5", a.PC)
	}
}

func TestJumpsFromStack(t *testing.T) {
	// pushc 4; jumps -> pc 4 (skips halt at 3)
	a := NewAgent(1, code(byte(OpPushc), 4, byte(OpJumps), byte(OpHalt), byte(OpHalt)))
	out := run(t, a, newMockHost(), 10)
	if out.Effect != EffectHalt || a.PC != 4 {
		t.Fatalf("jumps: pc = %d", a.PC)
	}
	// Bad target dies.
	a = NewAgent(1, code(byte(OpPushc), 200, byte(OpJumps)))
	out = run(t, a, newMockHost(), 10)
	if out.Effect != EffectError || !errors.Is(out.Err, ErrBadPC) {
		t.Fatalf("bad jumps: %v %v", out.Effect, out.Err)
	}
}

func TestGetvarSetvar(t *testing.T) {
	a := NewAgent(1, code(
		byte(OpPushc), 42, byte(OpSetvar), 3,
		byte(OpGetvar), 3, byte(OpHalt)))
	run(t, a, newMockHost(), 10)
	v, _ := a.PopInt()
	if v != 42 {
		t.Fatalf("heap round trip = %d", v)
	}
	a = NewAgent(1, code(byte(OpPushc), 1, byte(OpSetvar), 12)) // 12 out of range
	out := run(t, a, newMockHost(), 10)
	if out.Effect != EffectError || !errors.Is(out.Err, ErrBadHeapAddr) {
		t.Fatalf("bad heap addr: %v", out.Err)
	}
}

func TestSleepEffect(t *testing.T) {
	// Figure 13: pushcl 4800; sleep -> 600 s.
	a := NewAgent(1, code(byte(OpPushcl), 0x12, 0xC0, byte(OpSleep), byte(OpHalt)))
	out := run(t, a, newMockHost(), 10)
	if out.Effect != EffectSleep {
		t.Fatalf("effect = %v", out.Effect)
	}
	if out.Sleep != 600*time.Second {
		t.Fatalf("sleep = %v, want 600s", out.Sleep)
	}
	if a.PC != 4 {
		t.Fatalf("pc = %d, must advance past sleep", a.PC)
	}
}

func TestWaitEffect(t *testing.T) {
	a := NewAgent(1, code(byte(OpWait), byte(OpHalt)))
	out := Step(a, newMockHost())
	if out.Effect != EffectWait || a.PC != 1 {
		t.Fatalf("wait: effect=%v pc=%d", out.Effect, a.PC)
	}
}

func TestSenseAndLED(t *testing.T) {
	h := newMockHost()
	a := NewAgent(1, code(byte(OpPushc), 1, byte(OpSense), byte(OpHalt))) // TEMPERATURE=1
	run(t, a, h, 10)
	v, _ := a.Pop()
	if v.Kind != ts.KindReading || v.B != 250 || a.Condition != 1 {
		t.Fatalf("sense = %v cond=%d", v, a.Condition)
	}
	// Missing sensor: zero reading, condition cleared.
	a = NewAgent(1, code(byte(OpPushc), 4, byte(OpSense), byte(OpHalt))) // SMOKE not fitted
	run(t, a, h, 10)
	v, _ = a.Pop()
	if v.B != 0 || a.Condition != 0 {
		t.Fatalf("missing sensor = %v cond=%d", v, a.Condition)
	}

	a = NewAgent(1, code(byte(OpPushc), 5, byte(OpPutled), byte(OpHalt)))
	run(t, a, h, 10)
	if h.led != 5 {
		t.Fatalf("led = %d", h.led)
	}
}

func TestOutInpRdpLocal(t *testing.T) {
	h := newMockHost()
	// out <"fir", loc>: pushn fir; loc; pushc 2; out
	a := NewAgent(1, code(
		byte(OpPushn), 'f', 'i', 'r', byte(OpLoc), byte(OpPushc), 2,
		byte(OpOut), byte(OpHalt)))
	out := run(t, a, h, 10)
	if out.Effect != EffectHalt || a.Condition != 1 {
		t.Fatalf("out failed: %v cond=%d err=%v", out.Effect, a.Condition, out.Err)
	}
	if h.space.TupleCount() != 1 {
		t.Fatal("tuple not inserted")
	}

	// rdp with wildcard finds it and pushes fields+count.
	a = NewAgent(2, code(
		byte(OpPusht), byte(ts.TypeString), byte(OpPusht), byte(ts.TypeLocation),
		byte(OpPushc), 2, byte(OpRdp), byte(OpHalt)))
	run(t, a, h, 10)
	if a.Condition != 1 {
		t.Fatal("rdp did not match")
	}
	fields, err := a.PopFields(new([StackDepth]ts.Value))
	if err != nil || len(fields) != 2 || fields[0].Name() != "fir" {
		t.Fatalf("rdp result = %v, %v", fields, err)
	}
	if h.space.TupleCount() != 1 {
		t.Fatal("rdp removed the tuple")
	}

	// inp removes it.
	a = NewAgent(3, code(
		byte(OpPusht), byte(ts.TypeString), byte(OpPusht), byte(ts.TypeLocation),
		byte(OpPushc), 2, byte(OpInp), byte(OpHalt)))
	run(t, a, h, 10)
	if a.Condition != 1 || h.space.TupleCount() != 0 {
		t.Fatal("inp did not remove")
	}

	// inp on empty space clears condition, pushes nothing.
	a = NewAgent(4, code(
		byte(OpPusht), byte(ts.TypeString), byte(OpPushc), 1, byte(OpInp), byte(OpHalt)))
	run(t, a, h, 10)
	if a.Condition != 0 || a.StackDepthUsed() != 0 {
		t.Fatalf("empty inp: cond=%d depth=%d", a.Condition, a.StackDepthUsed())
	}
}

func TestBlockingInBlocksAndRetries(t *testing.T) {
	h := newMockHost()
	prog := code(
		byte(OpPusht), byte(ts.TypeValue), byte(OpPushc), 1,
		byte(OpIn), byte(OpHalt))
	a := NewAgent(1, prog)
	// First two steps push the template; third blocks.
	Step(a, h)
	Step(a, h)
	out := Step(a, h)
	if out.Effect != EffectBlocked || out.BlockRemove != true {
		t.Fatalf("effect = %v", out.Effect)
	}
	if a.PC != 4 {
		t.Fatalf("pc = %d, must stay at the in instruction", a.PC)
	}
	if a.StackDepthUsed() != 2 {
		t.Fatalf("stack depth = %d, operands must be rolled back", a.StackDepthUsed())
	}
	// A tuple arrives; retrying the same instruction now succeeds.
	if err := h.space.Out(ts.T(ts.Int(9))); err != nil {
		t.Fatal(err)
	}
	out = Step(a, h)
	if out.Effect != EffectNone || a.Condition != 1 {
		t.Fatalf("retry: %v cond=%d", out.Effect, a.Condition)
	}
	fields, err := a.PopFields(new([StackDepth]ts.Value))
	if err != nil || len(fields) != 1 || fields[0].A != 9 {
		t.Fatalf("retry result = %v", fields)
	}
	if h.space.TupleCount() != 0 {
		t.Fatal("in must remove the tuple")
	}
}

func TestRdBlockingDoesNotRemove(t *testing.T) {
	h := newMockHost()
	if err := h.space.Out(ts.T(ts.Int(5))); err != nil {
		t.Fatal(err)
	}
	a := NewAgent(1, code(
		byte(OpPusht), byte(ts.TypeValue), byte(OpPushc), 1,
		byte(OpRd), byte(OpHalt)))
	out := run(t, a, h, 10)
	if out.Effect != EffectHalt {
		t.Fatalf("rd: %v err=%v", out.Effect, out.Err)
	}
	if h.space.TupleCount() != 1 {
		t.Fatal("rd removed the tuple")
	}
}

func TestTcount(t *testing.T) {
	h := newMockHost()
	for i := 0; i < 3; i++ {
		if err := h.space.Out(ts.T(ts.Int(int16(i)))); err != nil {
			t.Fatal(err)
		}
	}
	a := NewAgent(1, code(
		byte(OpPusht), byte(ts.TypeValue), byte(OpPushc), 1,
		byte(OpTcount), byte(OpHalt)))
	run(t, a, h, 10)
	n, _ := a.PopInt()
	if n != 3 {
		t.Fatalf("tcount = %d", n)
	}
}

func TestRegrxnDeregrxn(t *testing.T) {
	h := newMockHost()
	// Figure 2 prologue: pushn fir; pusht LOCATION; pushc 2; pushc 7; regrxn
	a := NewAgent(1, code(
		byte(OpPushn), 'f', 'i', 'r',
		byte(OpPusht), byte(ts.TypeLocation),
		byte(OpPushc), 2,
		byte(OpPushc), 7,
		byte(OpRegrxn),
		byte(OpPushn), 'f', 'i', 'r',
		byte(OpPusht), byte(ts.TypeLocation),
		byte(OpPushc), 2,
		byte(OpDeregrxn),
		byte(OpHalt)))
	// Step up to regrxn (5 instructions).
	for i := 0; i < 5; i++ {
		if out := Step(a, h); out.Effect != EffectNone {
			t.Fatalf("step %d: %v err=%v", i, out.Effect, out.Err)
		}
	}
	if a.Condition != 1 || h.registry.Len() != 1 {
		t.Fatalf("regrxn failed: cond=%d len=%d", a.Condition, h.registry.Len())
	}
	rs := h.registry.AppendForAgent(nil, 1)
	if rs[0].PC != 7 {
		t.Fatalf("reaction pc = %d", rs[0].PC)
	}
	out := run(t, a, h, 10)
	if out.Effect != EffectHalt {
		t.Fatalf("deregrxn run: %v err=%v", out.Effect, out.Err)
	}
	if a.Condition != 1 || h.registry.Len() != 0 {
		t.Fatalf("deregrxn failed: cond=%d len=%d", a.Condition, h.registry.Len())
	}
}

func TestRegrxnBadAddressDies(t *testing.T) {
	a := NewAgent(1, code(
		byte(OpPushn), 'f', 'i', 'r', byte(OpPushc), 1,
		byte(OpPushc), 99, byte(OpRegrxn)))
	out := run(t, a, newMockHost(), 10)
	if out.Effect != EffectError || !errors.Is(out.Err, ErrBadPC) {
		t.Fatalf("got %v / %v", out.Effect, out.Err)
	}
}

func TestMigrationEffects(t *testing.T) {
	tests := []struct {
		op   Op
		kind MigrateKind
	}{
		{OpSmove, StrongMove},
		{OpWmove, WeakMove},
		{OpSclone, StrongClone},
		{OpWclone, WeakClone},
	}
	for _, tt := range tests {
		a := NewAgent(1, code(byte(OpPushloc), 5, 1, byte(tt.op), byte(OpHalt)))
		out := run(t, a, newMockHost(), 10)
		if out.Effect != EffectMigrate || out.Migrate != tt.kind {
			t.Fatalf("%v: effect=%v kind=%v", tt.op, out.Effect, out.Migrate)
		}
		if out.Dest != topology.Loc(5, 1) {
			t.Fatalf("%v: dest=%v", tt.op, out.Dest)
		}
		if a.PC != 4 {
			t.Fatalf("%v: pc=%d, must point past the migration", tt.op, a.PC)
		}
	}
}

func TestMigrateKindPredicates(t *testing.T) {
	if !StrongMove.Strong() || WeakMove.Strong() {
		t.Fatal("Strong() wrong")
	}
	if !StrongClone.Clone() || StrongMove.Clone() {
		t.Fatal("Clone() wrong")
	}
}

func TestRoutEffect(t *testing.T) {
	// Figure 8: pushc 1; pushc 1; pushloc 5 1; rout
	a := NewAgent(1, code(
		byte(OpPushc), 1, byte(OpPushc), 1,
		byte(OpPushloc), 5, 1, byte(OpRout), byte(OpHalt)))
	out := run(t, a, newMockHost(), 10)
	if out.Effect != EffectRemote || out.Remote != RemoteOut {
		t.Fatalf("effect=%v remote=%v", out.Effect, out.Remote)
	}
	if out.Dest != topology.Loc(5, 1) {
		t.Fatalf("dest = %v", out.Dest)
	}
	if len(out.Tuple.Fields) != 1 || out.Tuple.Fields[0].A != 1 {
		t.Fatalf("tuple = %v", out.Tuple)
	}
}

func TestRinpRrdpEffects(t *testing.T) {
	for _, tt := range []struct {
		op   Op
		kind RemoteKind
	}{{OpRinp, RemoteInp}, {OpRrdp, RemoteRdp}} {
		a := NewAgent(1, code(
			byte(OpPusht), byte(ts.TypeValue), byte(OpPushc), 1,
			byte(OpPushloc), 3, 3, byte(tt.op), byte(OpHalt)))
		out := run(t, a, newMockHost(), 10)
		if out.Effect != EffectRemote || out.Remote != tt.kind {
			t.Fatalf("%v: %v %v", tt.op, out.Effect, out.Remote)
		}
		if len(out.Template.Fields) != 1 {
			t.Fatalf("%v: template = %v", tt.op, out.Template)
		}
	}
}

func TestRunawayPCDies(t *testing.T) {
	a := NewAgent(1, code(byte(OpPushc), 1)) // no halt; PC runs off the end
	Step(a, newMockHost())
	out := Step(a, newMockHost())
	if out.Effect != EffectError || !errors.Is(out.Err, ErrBadPC) {
		t.Fatalf("got %v / %v", out.Effect, out.Err)
	}
}

func TestUnknownOpcodeDies(t *testing.T) {
	a := NewAgent(1, code(0xEE))
	out := Step(a, newMockHost())
	if out.Effect != EffectError || !errors.Is(out.Err, ErrUnknownOpcode) {
		t.Fatalf("got %v / %v", out.Effect, out.Err)
	}
}

// TestSemanticsCoverISA holds the ISA table and the two dispatchers of
// the one set of semantics in step: every defined opcode has an entry in
// the table Compile binds and a case in Step's switch, and every
// undefined byte dies under Step with the unknown-opcode message.
func TestSemanticsCoverISA(t *testing.T) {
	for b := 0; b < 256; b++ {
		op := Op(b)
		info, defined := Lookup(op)
		if !defined {
			if semanticsTable[op] != nil {
				t.Errorf("0x%02x: undefined opcode has semantics", b)
			}
			want := fmt.Sprintf("vm: unknown opcode: 0x%02x at pc=0", b)
			if out := Step(NewAgent(1, code(byte(b))), newMockHost()); out.Effect != EffectError || out.Err == nil || out.Err.Error() != want {
				t.Errorf("0x%02x: Step = %v / %v, want death with %q", b, out.Effect, out.Err, want)
			}
			continue
		}
		if semanticsTable[op] == nil {
			t.Errorf("%s: no semantics for Compile to bind", info.Name)
		}
		prog := append(append([]byte{byte(op)}, make([]byte, info.Operands)...), byte(OpHalt))
		if out := Step(NewAgent(1, prog), newMockHost()); errors.Is(out.Err, ErrUnknownOpcode) {
			t.Errorf("%s: no case in Step's dispatch: %v", info.Name, out.Err)
		}
	}
}

func TestTruncatedOperandDies(t *testing.T) {
	a := NewAgent(1, code(byte(OpPushcl), 1)) // needs 2 operand bytes
	out := Step(a, newMockHost())
	if out.Effect != EffectError {
		t.Fatalf("got %v", out.Effect)
	}
}

func TestStackUnderflowDies(t *testing.T) {
	a := NewAgent(1, code(byte(OpAdd)))
	out := Step(a, newMockHost())
	if out.Effect != EffectError || !errors.Is(out.Err, ErrStackUnderflow) {
		t.Fatalf("got %v / %v", out.Effect, out.Err)
	}
}

func TestCostsMatchTable(t *testing.T) {
	a := NewAgent(1, code(byte(OpLoc), byte(OpHalt)))
	out := Step(a, newMockHost())
	info, _ := Lookup(OpLoc)
	if out.Cost != info.Cost {
		t.Fatalf("cost = %v, want %v", out.Cost, info.Cost)
	}
}

func TestISATableConsistency(t *testing.T) {
	for _, op := range Ops() {
		info, ok := Lookup(op)
		if !ok {
			t.Fatalf("Ops returned unknown op %v", op)
		}
		if info.Name == "" || info.Cost <= 0 {
			t.Errorf("%v: bad info %+v", op, info)
		}
		back, ok := ByName(info.Name)
		if !ok || back != op {
			t.Errorf("ByName(%q) = %v,%v", info.Name, back, ok)
		}
		checkRowAgainstStep(t, op, info)
	}
	if _, ok := ByName("nosuch"); ok {
		t.Fatal("ByName accepted junk")
	}
}

// valueOfKind builds a Value of the one kind bit names, reading as the
// integer n where the kind coerces to one.
func valueOfKind(bit kmask, n int16) ts.Value {
	switch bit {
	case kNum:
		return ts.Int(n)
	case kStr:
		return ts.Str("abc")
	case kLoc:
		return ts.LocV(topology.Loc(1, 1))
	case kType:
		return ts.TypeV(ts.TypeCode(n))
	case kReading:
		return ts.Reading(ts.SensorTemperature, n)
	case kAgentID:
		return ts.AgentIDV(uint16(n))
	}
	return ts.Value{} // kInvalid
}

func kindBit(v ts.Value) kmask {
	if v.Kind == ts.KindInvalid {
		return kInvalid
	}
	return 1 << (v.Kind - 1)
}

// checkRowAgainstStep holds one ISA row's pops, pushes and flow columns
// to what the interpreter does: the verifier and the analyzer read those
// columns instead of restating Step, so the columns must not lie.
func checkRowAgainstStep(t *testing.T, op Op, info Info) {
	// The instruction at pc 0, then halts to land on. Integer operands
	// read as 2 (a jumps target and a reaction entry distinct from the
	// fall-through address 1 when there are no operand bytes), relative
	// jumps go to next+1, and a VarIn count is 1 over the field <1>,
	// which the host's tuple space holds so probes and blocking reads hit.
	next := uint16(info.Size())
	prog := append([]byte{byte(op)}, make([]byte, info.Operands)...)
	if info.Kind == OperandRel {
		prog[1] = byte(next + 1)
	}
	prog = append(prog, byte(OpHalt), byte(OpHalt), byte(OpHalt))

	// operands lists what the row says the instruction pops, top first.
	operands := info.pops
	if info.VarIn {
		operands = append(append([]operand(nil), operands...), countArg)
	}
	// run executes the instruction with operand i (from the top) of kind
	// bit and every other operand of the first kind its mask admits.
	run := func(i int, bit kmask, cond int16) (*Agent, Outcome, int) {
		a := NewAgent(1, prog)
		a.Condition = cond
		a.Heap[0] = ts.Int(7)
		if info.VarIn {
			_ = a.Push(ts.Int(1))
		}
		for j := len(operands) - 1; j >= 0; j-- {
			b, n := operands[j].mask&-operands[j].mask, int16(2)
			if j == i {
				b = bit
			}
			if operands[j] == countArg {
				n = 1
			}
			_ = a.Push(valueOfKind(b, n))
		}
		h := newMockHost()
		_ = h.space.Out(ts.Tuple{Fields: []ts.Value{ts.Int(1)}})
		before := a.StackDepthUsed()
		return a, Step(a, h), before
	}

	for i, o := range operands {
		for bit := kNum; bit <= kInvalid; bit <<= 1 {
			_, out, _ := run(i, bit, 0)
			mismatch := errors.Is(out.Err, ErrTypeMismatch)
			if o.mask&bit != 0 && mismatch {
				t.Errorf("%s: row admits a %v %s but Step rejects it: %v", info.Name, bit, o.what, out.Err)
			}
			if o.mask&bit == 0 && !mismatch {
				t.Errorf("%s: row forbids a %v %s but Step took it (effect %v, err %v)", info.Name, bit, o.what, out.Effect, out.Err)
			}
		}
	}

	a, out, before := run(-1, 0, 1)
	if out.Effect == EffectError {
		t.Fatalf("%s: a stack built from the row died: %v", info.Name, out.Err)
	}
	if !info.VarOut {
		popped := len(operands)
		if info.VarIn {
			popped++ // the one counted field
		}
		if got, want := a.StackDepthUsed(), before-popped+info.Out; got != want {
			t.Errorf("%s: stack depth %d after, row says %d", info.Name, got, want)
		}
		for i, m := range info.pushes {
			if v := a.stack[a.sp-info.Out+i]; kindBit(v)&m == 0 {
				t.Errorf("%s: result %d is a %v, row says %v", info.Name, i, kindBit(v), m)
			}
		}
	}
	switch info.flow {
	case flowNext:
		if out.Effect != EffectNone || a.PC != next {
			t.Errorf("%s: falls through, but effect %v pc %d (next %d)", info.Name, out.Effect, a.PC, next)
		}
	case flowBranch:
		if out.Effect != EffectNone || a.PC != next+1 {
			t.Errorf("%s: branch taken: effect %v pc %d, want pc %d", info.Name, out.Effect, a.PC, next+1)
		}
		if a, out, _ := run(-1, 0, 0); out.Effect != EffectNone || a.PC != next {
			t.Errorf("%s: branch not taken: effect %v pc %d, want pc %d", info.Name, out.Effect, a.PC, next)
		}
	case flowJump:
		for cond := int16(0); cond <= 1; cond++ {
			if a, out, _ := run(-1, 0, cond); out.Effect != EffectNone || a.PC == next {
				t.Errorf("%s: always jumps, but with condition %d effect %v pc %d", info.Name, cond, out.Effect, a.PC)
			}
		}
	case flowYield:
		if e := out.Effect; (e != EffectSleep && e != EffectMigrate && e != EffectRemote) || a.PC != next {
			t.Errorf("%s: yields, but effect %v pc %d (next %d)", info.Name, e, a.PC, next)
		}
	case flowStop:
		if e := out.Effect; e != EffectHalt && e != EffectWait {
			t.Errorf("%s: stops, but effect %v", info.Name, e)
		}
	}
}

func TestSizeValidation(t *testing.T) {
	if n, err := Size(code(byte(OpPushcl), 1, 2), 0); err != nil || n != 3 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if _, err := Size(code(byte(OpPushcl), 1), 0); err == nil {
		t.Fatal("truncated Size passed")
	}
	if _, err := Size(code(0xEE), 0); err == nil {
		t.Fatal("unknown opcode Size passed")
	}
	if _, err := Size(nil, 0); err == nil {
		t.Fatal("empty code Size passed")
	}
}

// The three Figure 12 cost classes must be ordered.
func TestCostClasses(t *testing.T) {
	get := func(op Op) time.Duration {
		info, _ := Lookup(op)
		return info.Cost
	}
	if !(get(OpLoc) < get(OpPushloc) && get(OpPushloc) < get(OpOut)) {
		t.Fatal("cost classes out of order")
	}
	if !(get(OpIn) > get(OpRd) && get(OpRd) > get(OpRdp)) {
		t.Fatal("blocking ops must cost more than probes (Figure 12)")
	}
}
