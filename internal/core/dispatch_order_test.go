package core

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
	"time"
	"unsafe"

	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sensor"
	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/wire"
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

// TestCreationOrderIndependence builds one 15×15 field three times,
// creating its agents in layout order, in reverse and in context-key
// order, and requires the same transcript and final state at one and two
// workers. The field has fewer than 256 motes, so agent IDs cannot alias
// across motes and couple the orders. After Start, every shard's records
// and agents sit at ascending addresses in key order, whatever the
// creation order was.
func TestCreationOrderIndependence(t *testing.T) {
	layout := topology.GridLayout(15, 15)
	byKey := dispatchOrder(layout.Nodes)
	orders := map[string][]int{
		"layout":  make([]int, len(layout.Nodes)),
		"reverse": make([]int, len(layout.Nodes)),
		"key":     byKey,
	}
	for i := range layout.Nodes {
		orders["layout"][i] = i
		orders["reverse"][i] = len(layout.Nodes) - 1 - i
	}
	monitor, reactor := agents.Monitor(2), asm.MustAssemble(reactorSrc)
	var ref string
	var refTrace, refState uint64
	for _, workers := range []int{1, 2} {
		for _, name := range []string{"layout", "reverse", "key"} {
			d, err := NewDeployment(DeploymentSpec{Layout: layout, Seed: 3, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			rec := newTraceRecorder()
			rec.install(d)
			for _, i := range orders[name] {
				n := d.Node(layout.Nodes[i])
				for _, code := range [][]byte{monitor, reactor} {
					if _, err := n.CreateAgent(code); err != nil {
						t.Fatalf("%s: create agent at %v: %v", name, n.Loc(), err)
					}
				}
			}
			d.Start()
			checkAgentsInKeyOrder(t, d, byKey)
			for _, i := range []int{0, 112, 224} {
				d.Base.RemoteOp(wire.OpRout, layout.Nodes[i], tuplespace.T(tuplespace.Str("png")), tuplespace.Template{}, nil)
			}
			if err := d.Sim.Run(3 * time.Second); err != nil {
				t.Fatal(err)
			}
			trace, lines := rec.hash()
			state := deploymentHash(d)
			if lines == 0 || d.TotalStats().ReactionsFired == 0 {
				t.Fatalf("%s: the workload did nothing: %d trace lines, %+v", name, lines, d.TotalStats())
			}
			if ref == "" {
				ref, refTrace, refState = name, trace, state
				continue
			}
			if trace != refTrace || state != refState {
				t.Errorf("workers=%d: creating in %s order gives trace %x and state %x; %s order gives %x and %x",
					workers, name, trace, state, ref, refTrace, refState)
			}
		}
	}
}

// checkAgentsInKeyOrder requires every shard's agent records and VM
// states, walked mote by mote in context-key order, at ascending
// addresses.
func checkAgentsInKeyOrder(t *testing.T, d *Deployment, byKey []int) {
	t.Helper()
	type last struct{ rec, agent uintptr }
	prev := make([]last, d.Sim.Shards())
	for _, i := range byKey {
		n := d.Node(d.layout.Nodes[i])
		p := &prev[n.sim.Shard()]
		for _, rec := range n.agents {
			r, a := uintptr(unsafe.Pointer(rec)), uintptr(unsafe.Pointer(rec.agent))
			if r <= p.rec || a <= p.agent {
				t.Fatalf("agent %#04x at %v is not above the previous one of its shard in key order", rec.agent.ID, n.Loc())
			}
			*p = last{r, a}
		}
	}
}

// deploymentHash digests the state a run leaves: per node its counters,
// network counters, neighbours, tuples, LED and agents, and the medium's
// counters and the event count.
func deploymentHash(d *Deployment) uint64 {
	h := fnv.New64a()
	for _, n := range d.Nodes() {
		fmt.Fprintf(h, "%v %+v %+v %d %d %d\n", n.Loc(), n.Stats(), n.Net().Stats(),
			n.Net().Acquaintances().Len(), n.Space().TupleCount(), n.LED())
		for _, id := range n.AgentIDs() {
			a, _ := n.Agent(id)
			st, _ := n.AgentInfo(id)
			fmt.Fprintf(h, "%d %v %d %d %v\n", id, st, a.PC, a.Condition, a.StackSlice())
		}
	}
	fmt.Fprintf(h, "%+v %d\n", d.Medium.Stats(), d.Sim.Executed())
	return h.Sum64()
}

// BenchmarkFieldWake times a 100×100 field of sensing loops after
// warm-up: every mote wakes its agent on the same ticks, so each shard
// pops one 10,000-entry cluster in context-key order. One op is one
// virtual second; ns/event is the wall time per executed event. The
// agents are created in layout order (y-major, as Motes() lists them)
// and in key order (x-major, the order a wake cluster pops); the two
// read alike when agent placement does not depend on creation order.
func BenchmarkFieldWake(b *testing.B) {
	layout := topology.GridLayout(100, 100)
	layoutOrder := make([]int, len(layout.Nodes))
	for i := range layoutOrder {
		layoutOrder[i] = i
	}
	b.Run("layout-order", func(b *testing.B) { benchFieldWake(b, layout, layoutOrder) })
	b.Run("key-order", func(b *testing.B) { benchFieldWake(b, layout, dispatchOrder(layout.Nodes)) })
}

func benchFieldWake(b *testing.B, layout topology.Layout, order []int) {
	params := radio.ZeroLoss()
	d, err := NewDeployment(DeploymentSpec{
		Layout: layout,
		Seed:   7,
		Radio:  &params,
		Field:  sensor.Constant(25),
	})
	if err != nil {
		b.Fatal(err)
	}
	code := agents.Monitor(2)
	for _, i := range order {
		if _, err := d.Node(layout.Nodes[i]).CreateAgent(code); err != nil {
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
