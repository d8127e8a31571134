package core

import (
	"slices"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sensor"
	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
)

// TestDispatchOrderKeepsMoteIdentity pins what building the motes in
// scheduling-key order must not change. A 17×16 grid has 272 motes, past
// the wrap of the uint8 node index, so the index has to follow the
// layout position rather than the construction position.
func TestDispatchOrderKeepsMoteIdentity(t *testing.T) {
	layout := topology.GridLayout(17, 16)
	params := radio.ZeroLoss()
	d, err := NewDeployment(DeploymentSpec{Layout: layout, Seed: 1, Radio: &params})
	if err != nil {
		t.Fatal(err)
	}

	// Construction visits every mote once (as many indices as motes, in
	// strictly ascending context key), x-major: the second mote built is
	// (1,2), layout index 17.
	order := dispatchOrder(layout.Nodes)
	if len(order) != len(layout.Nodes) {
		t.Fatalf("dispatch order has %d indices for %d motes", len(order), len(layout.Nodes))
	}
	for k := 1; k < len(order); k++ {
		prev, cur := layout.Nodes[order[k-1]], layout.Nodes[order[k]]
		if sim.Key2D(prev.X, prev.Y) >= sim.Key2D(cur.X, cur.Y) {
			t.Fatalf("dispatch order visits %v before %v: keys not ascending", prev, cur)
		}
	}
	if order[1] != 17 {
		t.Fatalf("second mote built is layout index %d, want 17 (the mote at (1,2))", order[1])
	}

	// Locations, Motes and Nodes keep layout (Y,X) order.
	if !slices.Equal(d.Locations(), layout.Nodes) {
		t.Fatal("Locations() left layout order")
	}
	motes := d.Motes()
	if len(motes) != len(layout.Nodes) {
		t.Fatalf("Motes() has %d nodes, want %d", len(motes), len(layout.Nodes))
	}
	for i, n := range motes {
		if n.Loc() != layout.Nodes[i] {
			t.Fatalf("Motes()[%d] is %v, want %v", i, n.Loc(), layout.Nodes[i])
		}
	}
	if nodes := d.Nodes(); nodes[0] != d.Base || !slices.Equal(nodes[1:], motes) {
		t.Fatal("Nodes() is not the base station followed by Motes()")
	}

	// A mote's first agent ID carries its layout position in the high byte.
	code := agents.Monitor(2)
	for i, loc := range layout.Nodes {
		id, err := d.Node(loc).CreateAgent(code)
		if err != nil {
			t.Fatalf("create agent at %v: %v", loc, err)
		}
		if want := uint16(uint8(i+1))<<8 | 1; id != want {
			t.Fatalf("first agent at layout index %d (%v) is %#04x, want %#04x", i, loc, id, want)
		}
	}
}

// BenchmarkFieldWake times a 100×100 field of sensing loops after
// warm-up: every mote wakes its agent on the same ticks, so each shard
// pops one 10,000-entry cluster in context-key order. One op is one
// virtual second; ns/event is the wall time per executed event.
func BenchmarkFieldWake(b *testing.B) {
	params := radio.ZeroLoss()
	d, err := NewDeployment(DeploymentSpec{
		Layout: topology.GridLayout(100, 100),
		Seed:   7,
		Radio:  &params,
		Field:  sensor.Constant(25),
	})
	if err != nil {
		b.Fatal(err)
	}
	code := agents.Monitor(2)
	for _, n := range d.Motes() {
		if _, err := n.CreateAgent(code); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.WarmUp(); err != nil {
		b.Fatal(err)
	}
	start := d.Sim.Executed()
	b.ResetTimer()
	for range b.N {
		if err := d.Sim.Run(d.Sim.Now() + time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if events := d.Sim.Executed() - start; events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	}
}
