package vm

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/agilla-go/agilla/internal/topology"
	ts "github.com/agilla-go/agilla/internal/tuplespace"
)

func TestPushPopLIFO(t *testing.T) {
	a := NewAgent(1, nil)
	for i := int16(0); i < 5; i++ {
		if err := a.Push(ts.Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int16(4); i >= 0; i-- {
		v, err := a.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if v.A != i {
			t.Fatalf("pop = %v, want %d", v, i)
		}
	}
}

func TestStackOverflow(t *testing.T) {
	a := NewAgent(1, nil)
	for i := 0; i < StackDepth; i++ {
		if err := a.Push(ts.Int(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Push(ts.Int(0)); !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("err = %v, want overflow", err)
	}
}

func TestStackUnderflow(t *testing.T) {
	a := NewAgent(1, nil)
	if _, err := a.Pop(); !errors.Is(err, ErrStackUnderflow) {
		t.Fatalf("Pop err = %v", err)
	}
	if _, err := a.Peek(); !errors.Is(err, ErrStackUnderflow) {
		t.Fatalf("Peek err = %v", err)
	}
}

func TestPopIntCoercions(t *testing.T) {
	a := NewAgent(1, nil)
	tests := []struct {
		v    ts.Value
		want int16
		ok   bool
	}{
		{ts.Int(-7), -7, true},
		{ts.Reading(ts.SensorTemperature, 250), 250, true},
		{ts.AgentIDV(9), 9, true},
		{ts.TypeV(ts.TypeLocation), 3, true},
		{ts.LocV(topology.Loc(1, 1)), 0, false},
		{ts.Str("abc"), 0, false},
	}
	for _, tt := range tests {
		if err := a.Push(tt.v); err != nil {
			t.Fatal(err)
		}
		got, err := a.PopInt()
		if tt.ok && (err != nil || got != tt.want) {
			t.Errorf("PopInt(%v) = %d,%v want %d", tt.v, got, err, tt.want)
		}
		if !tt.ok && !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("PopInt(%v) err = %v, want type mismatch", tt.v, err)
		}
		a.Reset()
	}
}

func TestPopFieldsOrder(t *testing.T) {
	a := NewAgent(1, nil)
	// Figure 2 pushes: pushn fir, pusht LOCATION, pushc 2.
	if err := a.Push(ts.Str("fir")); err != nil {
		t.Fatal(err)
	}
	if err := a.Push(ts.TypeV(ts.TypeLocation)); err != nil {
		t.Fatal(err)
	}
	if err := a.Push(ts.Int(2)); err != nil {
		t.Fatal(err)
	}
	fields, err := a.PopFields()
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2 || fields[0].Kind != ts.KindString || fields[1].Kind != ts.KindType {
		t.Fatalf("fields = %v, want [fir, type]", fields)
	}
	if a.StackDepthUsed() != 0 {
		t.Fatal("stack not empty after PopFields")
	}
}

func TestPopFieldsUnderflow(t *testing.T) {
	a := NewAgent(1, nil)
	if err := a.Push(ts.Int(3)); err != nil { // claims 3 fields, none present
		t.Fatal(err)
	}
	if _, err := a.PopFields(); !errors.Is(err, ErrStackUnderflow) {
		t.Fatalf("err = %v", err)
	}
}

func TestPushFieldsRoundTrip(t *testing.T) {
	a := NewAgent(1, nil)
	in := []ts.Value{ts.Str("fir"), ts.LocV(topology.Loc(2, 2))}
	if err := a.PushFields(in); err != nil {
		t.Fatal(err)
	}
	out, err := a.PopFields()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || !out[0].Equal(in[0]) || !out[1].Equal(in[1]) {
		t.Fatalf("round trip = %v", out)
	}
}

func TestResetClearsState(t *testing.T) {
	a := NewAgent(5, []byte{byte(OpHalt)})
	a.PC = 1
	a.Condition = 1
	if err := a.Push(ts.Int(1)); err != nil {
		t.Fatal(err)
	}
	a.Heap[3] = ts.Int(9)
	a.Reset()
	if a.PC != 0 || a.Condition != 0 || a.StackDepthUsed() != 0 {
		t.Fatalf("registers not reset: %+v", a)
	}
	if a.Heap[3].Kind != ts.KindInvalid {
		t.Fatal("heap not reset")
	}
	if a.ID != 5 || len(a.Code) != 1 {
		t.Fatal("Reset must keep ID and code")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := NewAgent(1, []byte{byte(OpHalt), byte(OpHalt)})
	a.Heap[0] = ts.Int(7)
	if err := a.Push(ts.Int(42)); err != nil {
		t.Fatal(err)
	}
	c := NewAgent(9, make([]byte, 0, 8))
	buf := c.Code[:1]
	a.CloneInto(c, 2)
	if c.ID != 2 || &c.Code[0] != &buf[0] {
		t.Fatalf("clone ID = %d, code %p (want ID 2 in the given buffer %p)", c.ID, c.Code, buf)
	}
	c.Code[0] = byte(OpLoc)
	if a.Code[0] != byte(OpHalt) {
		t.Fatal("clone shares code storage")
	}
	v, err := c.Pop()
	if err != nil || v.A != 42 {
		t.Fatalf("clone stack = %v, %v", v, err)
	}
	if a.StackDepthUsed() != 1 {
		t.Fatal("popping clone's stack affected original")
	}
}

func TestSetStack(t *testing.T) {
	a := NewAgent(1, nil)
	vs := []ts.Value{ts.Int(1), ts.Int(2), ts.Int(3)}
	if err := a.SetStack(vs); err != nil {
		t.Fatal(err)
	}
	got := a.StackSlice()
	if len(got) != 3 || got[0].A != 1 || got[2].A != 3 {
		t.Fatalf("StackSlice = %v", got)
	}
	tooMany := make([]ts.Value, StackDepth+1)
	if err := a.SetStack(tooMany); !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("err = %v", err)
	}
}

// Property: push then pop returns the same value and restores depth.
func TestStackRoundTripProperty(t *testing.T) {
	f := func(kind uint8, x, y int16, name string) bool {
		// testing/quick cannot fill Value's unexported name bytes itself.
		v := ts.Value{Kind: ts.Kind(kind), A: x, B: y}
		if v.Kind == ts.KindString {
			v = ts.Str(name)
		}
		a := NewAgent(1, nil)
		before := a.StackDepthUsed()
		if err := a.Push(v); err != nil {
			return false
		}
		got, err := a.Pop()
		return err == nil && got.Equal(v) && a.StackDepthUsed() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: PushFields then PopFields is the identity for any field list
// that fits on the stack.
func TestFieldsRoundTripProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) > StackDepth-1 {
			raw = raw[:StackDepth-1]
		}
		in := make([]ts.Value, len(raw))
		for i, x := range raw {
			in[i] = ts.Int(x)
		}
		a := NewAgent(1, nil)
		if err := a.PushFields(in); err != nil {
			return false
		}
		out, err := a.PopFields()
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if !out[i].Equal(in[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
