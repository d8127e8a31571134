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
