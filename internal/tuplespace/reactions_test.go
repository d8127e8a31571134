package tuplespace

import (
	"errors"
	"testing"

	"github.com/agilla-go/agilla/internal/topology"
)

func fireReaction(agent uint16, pc uint16) Reaction {
	return Reaction{
		AgentID:  agent,
		Template: Tmpl(Str("fir"), TypeV(TypeLocation)),
		PC:       pc,
	}
}

func TestRegisterAndMatch(t *testing.T) {
	g := NewRegistry(0, 0)
	if err := g.Register(fireReaction(1, 10)); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
	ms := g.Matching(T(Str("fir"), LocV(topology.Loc(3, 3))))
	if len(ms) != 1 || ms[0].AgentID != 1 || ms[0].PC != 10 {
		t.Fatalf("Matching = %+v", ms)
	}
	if ms := g.Matching(T(Str("ice"), LocV(topology.Loc(3, 3)))); len(ms) != 0 {
		t.Fatalf("unexpected match %+v", ms)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	g := NewRegistry(0, 0)
	r := fireReaction(1, 10)
	if err := g.Register(r); err != nil {
		t.Fatal(err)
	}
	before := g.UsedBytes()
	if err := g.Register(r); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 || g.UsedBytes() != before {
		t.Fatalf("duplicate register changed registry: len=%d", g.Len())
	}
}

func TestRegistryEntryLimit(t *testing.T) {
	g := NewRegistry(0, 0)
	for i := uint16(0); i < DefaultRegistryMax; i++ {
		if err := g.Register(fireReaction(i, i)); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	err := g.Register(fireReaction(99, 99))
	if !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("err = %v, want ErrRegistryFull", err)
	}
}

func TestRegistryByteLimit(t *testing.T) {
	// Each fire reaction charges 6 + (1 + (2+3) + 3) = 15 bytes.
	g := NewRegistry(30, 100)
	if err := g.Register(fireReaction(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(fireReaction(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(fireReaction(3, 3)); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("err = %v, want ErrRegistryFull", err)
	}
}

func TestDeregister(t *testing.T) {
	g := NewRegistry(0, 0)
	r := fireReaction(1, 10)
	if err := g.Register(r); err != nil {
		t.Fatal(err)
	}
	if !g.Deregister(1, r.Template) {
		t.Fatal("Deregister returned false")
	}
	if g.Len() != 0 || g.UsedBytes() != 0 {
		t.Fatalf("registry not empty: len=%d used=%d", g.Len(), g.UsedBytes())
	}
	if g.Deregister(1, r.Template) {
		t.Fatal("second Deregister returned true")
	}
}

func TestDeregisterOnlyMatchingAgent(t *testing.T) {
	g := NewRegistry(0, 0)
	if err := g.Register(fireReaction(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(fireReaction(2, 20)); err != nil {
		t.Fatal(err)
	}
	if g.Deregister(3, fireReaction(1, 10).Template) {
		t.Fatal("deregistered for wrong agent")
	}
	if !g.Deregister(2, fireReaction(2, 20).Template) {
		t.Fatal("failed to deregister agent 2")
	}
	if g.Len() != 1 || g.AppendForAgent(nil, 1) == nil {
		t.Fatal("agent 1's reaction lost")
	}
}

func TestRemoveAgent(t *testing.T) {
	g := NewRegistry(0, 0)
	for pc := uint16(1); pc <= 3; pc++ {
		r := fireReaction(7, pc)
		if err := g.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Register(fireReaction(8, 50)); err != nil {
		t.Fatal(err)
	}
	if removed := g.RemoveAgent(7); removed != 3 {
		t.Fatalf("removed %d, want 3", removed)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
	if len(g.AppendForAgent(nil, 7)) != 0 {
		t.Fatal("agent 7 reactions remain")
	}
	// Budget must be recycled so the freed room is reusable.
	for pc := uint16(10); pc < 10+3; pc++ {
		if err := g.Register(fireReaction(9, pc)); err != nil {
			t.Fatalf("re-register after removal: %v", err)
		}
	}
}

func TestMatchingOrder(t *testing.T) {
	g := NewRegistry(0, 0)
	for i := uint16(1); i <= 3; i++ {
		if err := g.Register(fireReaction(i, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	ms := g.Matching(T(Str("fir"), LocV(topology.Loc(1, 1))))
	if len(ms) != 3 {
		t.Fatalf("len = %d", len(ms))
	}
	for i, m := range ms {
		if m.AgentID != uint16(i+1) {
			t.Fatalf("matching out of registration order: %+v", ms)
		}
	}
}

// TestDeregisterClearsVacatedSlot: removing a reaction leaves nothing of
// it reachable past the registry's length, neither the entry nor its
// template's fields.
func TestDeregisterClearsVacatedSlot(t *testing.T) {
	g := NewRegistry(0, 0)
	for pc := uint16(1); pc <= 3; pc++ {
		if err := g.Register(fireReaction(pc, pc)); err != nil {
			t.Fatal(err)
		}
	}
	if !g.Deregister(1, fireReaction(1, 1).Template) {
		t.Fatal("Deregister found nothing")
	}
	if tail := g.entries[:len(g.entries)+1][len(g.entries)]; tail.AgentID != 0 || tail.PC != 0 || tail.Template.Fields != nil {
		t.Errorf("vacated entry slot holds %+v, want the zero Reaction", tail)
	}
	for i, v := range g.fields[len(g.fields):cap(g.fields)] {
		if v != (Value{}) {
			t.Errorf("vacated field slot %d holds %v, want the zero Value", i, v)
		}
	}
	for i, e := range g.entries {
		if want := fireReaction(uint16(i+2), uint16(i+2)); e.AgentID != want.AgentID || !e.Template.Equal(want.Template) {
			t.Errorf("entry %d = %+v after the removal, want %+v", i, e, want)
		}
	}
}

// TestRegistryOwnsTemplates: Register copies the template, so the
// caller's fields are free to change afterwards, and once the registry
// has held its largest set a register/deregister cycle allocates nothing.
func TestRegistryOwnsTemplates(t *testing.T) {
	g := NewRegistry(0, 0)
	scratch := []Value{Str("fir"), TypeV(TypeLocation)}
	if err := g.Register(Reaction{AgentID: 1, Template: Template{Fields: scratch}, PC: 4}); err != nil {
		t.Fatal(err)
	}
	scratch[0], scratch[1] = Str("ice"), Int(9)
	if ms := g.Matching(T(Str("fir"), LocV(topology.Loc(2, 2)))); len(ms) != 1 {
		t.Fatalf("the registered template changed with the caller's fields: %+v", g.entries)
	}
	if err := g.Register(fireReaction(2, 8)); err != nil {
		t.Fatal(err)
	}
	first, other := fireReaction(1, 4), Reaction{AgentID: 3, Template: Tmpl(Str("tmp"), TypeV(TypeValue), TypeV(TypeLocation)), PC: 6}
	cycle := func() {
		if err := g.Register(other); err != nil {
			t.Fatal(err)
		}
		if !g.Deregister(first.AgentID, first.Template) || !g.Deregister(other.AgentID, other.Template) {
			t.Fatal("Deregister found nothing")
		}
		if err := g.Register(first); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("register/deregister allocates %.1f objects per cycle, want 0", got)
	}
	if g.Len() != 2 || g.UsedBytes() != 2*first.EncodedSize() {
		t.Errorf("after the cycles: %d entries, %d bytes", g.Len(), g.UsedBytes())
	}
}
