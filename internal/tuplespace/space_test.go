package tuplespace

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/agilla-go/agilla/internal/topology"
)

func fireTuple() Tuple {
	return T(Str("fir"), LocV(topology.Loc(2, 2)))
}

func TestTupleRoundTripProperty(t *testing.T) {
	f := func(vs []Value) bool {
		tp := Tuple{Fields: vs}
		b := tp.Marshal(nil)
		if len(b) != tp.EncodedSize() {
			return false
		}
		got, n, err := UnmarshalTuple(b)
		return err == nil && n == len(b) && got.Equal(tp)
	}
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := r.Intn(5)
			vs := make([]Value, n)
			for i := range vs {
				vs[i] = Value{}.Generate(r, 0).Interface().(Value)
			}
			args[0] = reflect.ValueOf(vs)
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTemplateMatching(t *testing.T) {
	fire := fireTuple()
	tests := []struct {
		name string
		p    Template
		want bool
	}{
		{"exact", Tmpl(Str("fir"), LocV(topology.Loc(2, 2))), true},
		{"wildcard-loc", Tmpl(Str("fir"), TypeV(TypeLocation)), true},
		{"wildcard-both", Tmpl(TypeV(TypeString), TypeV(TypeLocation)), true},
		{"wildcard-any", Tmpl(TypeV(TypeAny), TypeV(TypeAny)), true},
		{"wrong-literal", Tmpl(Str("ice"), TypeV(TypeLocation)), false},
		{"wrong-type", Tmpl(Str("fir"), TypeV(TypeValue)), false},
		{"wrong-arity-short", Tmpl(Str("fir")), false},
		{"wrong-arity-long", Tmpl(Str("fir"), TypeV(TypeLocation), Int(1)), false},
		{"wrong-location", Tmpl(Str("fir"), LocV(topology.Loc(9, 9))), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Matches(fire); got != tt.want {
				t.Fatalf("Matches = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestTemplateMatchesReadingBySensor(t *testing.T) {
	temp := T(Reading(SensorTemperature, 250))
	photo := T(Reading(SensorPhoto, 250))
	p := Tmpl(TypeV(TypeOfSensor(SensorTemperature)))
	if !p.Matches(temp) {
		t.Fatal("temperature template should match temperature reading")
	}
	if p.Matches(photo) {
		t.Fatal("temperature template matched photo reading")
	}
}

func TestOutRdpInp(t *testing.T) {
	s := NewSpace(0)
	if err := s.Out(fireTuple()); err != nil {
		t.Fatal(err)
	}
	if s.TupleCount() != 1 {
		t.Fatalf("count = %d", s.TupleCount())
	}

	got, ok := s.Rdp(Tmpl(TypeV(TypeString), TypeV(TypeLocation)))
	if !ok || !got.Equal(fireTuple()) {
		t.Fatalf("Rdp = %v, %v", got, ok)
	}
	if s.TupleCount() != 1 {
		t.Fatal("Rdp must not remove")
	}

	got, ok = s.Inp(Tmpl(TypeV(TypeString), TypeV(TypeLocation)))
	if !ok || !got.Equal(fireTuple()) {
		t.Fatalf("Inp = %v, %v", got, ok)
	}
	if s.TupleCount() != 0 || s.UsedBytes() != 0 {
		t.Fatalf("space not empty after Inp: count=%d used=%d", s.TupleCount(), s.UsedBytes())
	}

	if _, ok := s.Inp(Tmpl(TypeV(TypeAny))); ok {
		t.Fatal("Inp on empty space matched")
	}
}

func TestInpRemovesFirstMatchOnly(t *testing.T) {
	s := NewSpace(0)
	for i := int16(1); i <= 3; i++ {
		if err := s.Out(T(Str("x"), Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := s.Inp(Tmpl(Str("x"), TypeV(TypeValue)))
	if !ok || got.Fields[1].A != 1 {
		t.Fatalf("Inp removed %v, want first inserted", got)
	}
	if s.TupleCount() != 2 {
		t.Fatalf("count = %d, want 2", s.TupleCount())
	}
	// The remaining tuples must have shifted forward and stay readable.
	all := s.All()
	if len(all) != 2 || all[0].Fields[1].A != 2 || all[1].Fields[1].A != 3 {
		t.Fatalf("arena corrupted after shift: %v", all)
	}
}

func TestInpMiddleShiftsFollowing(t *testing.T) {
	s := NewSpace(0)
	for i := int16(1); i <= 4; i++ {
		if err := s.Out(T(Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Inp(Tmpl(Int(2))); !ok {
		t.Fatal("no match for middle tuple")
	}
	all := s.All()
	want := []int16{1, 3, 4}
	if len(all) != 3 {
		t.Fatalf("len = %d", len(all))
	}
	for i, w := range want {
		if all[i].Fields[0].A != w {
			t.Fatalf("all = %v, want order %v", all, want)
		}
	}
}

func TestOutRejectsOversizedTuple(t *testing.T) {
	s := NewSpace(0)
	// 6 locations = 1 + 6*5 = 31 bytes > 25.
	big := T(
		LocV(topology.Loc(1, 1)), LocV(topology.Loc(1, 1)), LocV(topology.Loc(1, 1)),
		LocV(topology.Loc(1, 1)), LocV(topology.Loc(1, 1)), LocV(topology.Loc(1, 1)),
	)
	err := s.Out(big)
	if !errors.Is(err, ErrTupleTooBig) {
		t.Fatalf("err = %v, want ErrTupleTooBig", err)
	}
	if s.TupleCount() != 0 {
		t.Fatal("failed Out must not modify the space")
	}
}

func TestOutArenaFull(t *testing.T) {
	s := NewSpace(20)
	// Each T(Int(i)) is 1 + 3 = 4 bytes, so 5 fit in 20 bytes.
	for i := int16(0); i < 5; i++ {
		if err := s.Out(T(Int(i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	err := s.Out(T(Int(99)))
	if !errors.Is(err, ErrSpaceFull) {
		t.Fatalf("err = %v, want ErrSpaceFull", err)
	}
	if s.TupleCount() != 5 {
		t.Fatal("failed Out must not modify the space")
	}
	// Removing one frees room again.
	if _, ok := s.Inp(Tmpl(Int(0))); !ok {
		t.Fatal("Inp failed")
	}
	if err := s.Out(T(Int(99))); err != nil {
		t.Fatalf("Out after free: %v", err)
	}
}

func TestCount(t *testing.T) {
	s := NewSpace(0)
	for i := 0; i < 3; i++ {
		if err := s.Out(T(Str("a"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Out(T(Str("b"))); err != nil {
		t.Fatal(err)
	}
	if got := s.Count(Tmpl(Str("a"))); got != 3 {
		t.Fatalf("Count(a) = %d", got)
	}
	if got := s.Count(Tmpl(TypeV(TypeString))); got != 4 {
		t.Fatalf("Count(string) = %d", got)
	}
	if got := s.Count(Tmpl(Int(1))); got != 0 {
		t.Fatalf("Count(1) = %d", got)
	}
}

func TestRemoveAll(t *testing.T) {
	s := NewSpace(0)
	for i := 0; i < 4; i++ {
		if err := s.Out(T(Str("a"), Int(int16(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Out(T(Str("b"))); err != nil {
		t.Fatal(err)
	}
	if n := s.RemoveAll(Tmpl(Str("a"), TypeV(TypeValue))); n != 4 {
		t.Fatalf("RemoveAll = %d, want 4", n)
	}
	if s.TupleCount() != 1 {
		t.Fatalf("count = %d, want 1", s.TupleCount())
	}
}

func TestOnInsertObserver(t *testing.T) {
	s := NewSpace(0)
	var seen, gone []Tuple
	s.SetHooks(func(t Tuple) { seen = append(seen, t) }, func(t Tuple) { gone = append(gone, t) })
	if err := s.Out(fireTuple()); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || !seen[0].Equal(fireTuple()) {
		t.Fatalf("insert hook saw %v", seen)
	}
	// Drop hands the remove hook the tuple it removed, as Inp does.
	if !s.Drop(Tmpl(Str("fir"), TypeV(TypeLocation))) {
		t.Fatal("Drop missed the stored tuple")
	}
	if len(gone) != 1 || !gone[0].Equal(fireTuple()) {
		t.Fatalf("remove hook saw %v", gone)
	}
	// A wipe clears both hooks.
	s.Init(0)
	if err := s.Out(fireTuple()); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Fatalf("insert hook fired after Init: %v", seen)
	}
}

// Property: a random interleaving of Out/Inp never corrupts the arena —
// every remaining tuple decodes, byte accounting is exact, and matching
// still works.
func TestArenaInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := NewSpace(120)
		live := 0
		for _, op := range ops {
			v := int16(op % 7)
			if op%3 == 0 && live > 0 {
				if _, ok := s.Inp(Tmpl(TypeV(TypeValue))); ok {
					live--
				}
			} else {
				if err := s.Out(T(Int(v))); err == nil {
					live++
				}
			}
			// Invariants after every operation:
			if s.TupleCount() != live {
				return false
			}
			if s.UsedBytes() != live*4 { // each tuple is 4 bytes
				return false
			}
			if len(s.All()) != live {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLookupAllocatesOnlyWhatItReturns pins the allocation-free lookup:
// tuples are matched in a scratch array on the stack, so a miss, a count
// and a Drop allocate nothing and a hit allocates only the tuple it hands
// back.
func TestLookupAllocatesOnlyWhatItReturns(t *testing.T) {
	s := NewSpace(0)
	for i := int16(0); i < 10; i++ {
		if err := s.Out(T(Str("tmp"), Int(i), LocV(topology.Loc(i, 1)))); err != nil {
			t.Fatal(err)
		}
	}
	miss := Tmpl(Str("tmp"), Int(99), TypeV(TypeLocation))
	hit := Tmpl(Str("tmp"), Int(9), TypeV(TypeLocation))
	all := Tmpl(Str("tmp"), TypeV(TypeValue), TypeV(TypeLocation))
	for _, tc := range []struct {
		name string
		op   func()
		want float64
	}{
		{"Rdp miss", func() { s.Rdp(miss) }, 0},
		{"Rdp hit", func() { s.Rdp(hit) }, 1},
		{"Inp miss", func() { s.Inp(miss) }, 0},
		{"Count", func() {
			if s.Count(all) != 10 {
				t.Fatal("Count lost tuples")
			}
		}, 0},
		{"Out then Drop", func() {
			_ = s.Out(T(Str("tmp"), Int(99), LocV(topology.Loc(0, 0))))
			s.Drop(miss)
		}, 1}, // the tuple Out is handed
	} {
		if got := testing.AllocsPerRun(100, tc.op); got != tc.want {
			t.Errorf("%s: %.0f allocations, want %.0f", tc.name, got, tc.want)
		}
	}
	if s.TupleCount() != 10 {
		t.Fatalf("TupleCount = %d after the pins, want 10", s.TupleCount())
	}
}
