package radio

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
)

// mallocs counts the heap objects one call of f allocates, the way
// testing.AllocsPerRun does but without its warm-up call: a port's first
// broadcast happens once.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// recordOf returns the fan-out record the medium holds for sends from
// loc by the port p, or nil.
func recordOf(m *Medium, p *Port, loc topology.Location) *fanout {
	return m.sh[p.ctx.Shard()].fan[loc]
}

// TestFirstBroadcastAllocatesNothing: taking a port builds its fan-out
// record with room for the location's topology degree, so once the
// delivery pool is warm a port's first broadcast — the send that resolves
// its neighbours — allocates nothing, and neither does re-resolving them
// after a new attachment bumps the medium's version.
func TestFirstBroadcastAllocatesNothing(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, topology.Grid{}, Lossy())
	heard := 0
	locs := topology.GridLocations(6, 6)
	ports := make([]*Port, len(locs))
	for i, loc := range locs {
		if err := m.Attach(loc, receiverFunc(func(Frame) { heard++ })); err != nil {
			t.Fatal(err)
		}
		ports[i] = m.Port(loc)
		if fo := recordOf(m, ports[i], loc); fo == nil || cap(fo.links) != 4 {
			t.Fatalf("taking the port at %v built no record with room for its 4 links", loc)
		}
	}
	payload := []byte{1, 2, 3}
	broadcast := func(i int) {
		m.SendFrom(ports[i], Frame{Src: locs[i], Dst: Broadcast, Kind: KindBeacon, Payload: payload})
		if err := s.Run(s.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// An interior port fills the delivery pool and the kernel's event
	// storage for four receivers; every other port's first broadcast is
	// measured.
	const warm = 14 // (3,3)
	for range 3 {
		broadcast(warm)
	}
	round := func() {
		for i := range ports {
			if i != warm {
				broadcast(i)
			}
		}
	}
	if got := mallocs(round); got != 0 {
		t.Errorf("the first broadcast of %d ports allocates %d objects, want 0", len(ports)-1, got)
	}
	if heard == 0 {
		t.Fatal("no broadcast was heard")
	}
	// A new attachment beside the corner bumps the version: every record
	// re-resolves, and (1,1)'s takes the newcomer in within its room.
	if err := m.Attach(topology.Loc(0, 1), receiverFunc(func(Frame) {})); err != nil {
		t.Fatal(err)
	}
	if got := mallocs(round); got != 0 {
		t.Errorf("re-resolving %d ports after a version bump allocates %d objects, want 0", len(ports)-1, got)
	}
	if fo := recordOf(m, ports[0], locs[0]); len(fo.links) != 3 || cap(fo.links) != 4 {
		t.Fatalf("(1,1)'s record after the attachment: %d links in room for %d, want 3 in 4", len(fo.links), cap(fo.links))
	}
}

// plainTopology hides a topology's NeighborEnumerator, so the medium
// scans its attachments and grows each record on use.
type plainTopology struct{ topology.Topology }

// TestNeighborRoom: taking a port sizes its record from the candidates
// the topology enumerates that are Connected to the location, and a
// network stack reads that room back. A Grid clips its candidates at the
// int16 extremes, so a corner of the coordinate range has 2 (3 with
// Diag) and an edge 3 (5); WithBase adds the base–gateway link; Adjacency
// counts its explicit partners; a topology that cannot enumerate gives
// its ports no room.
func TestNeighborRoom(t *testing.T) {
	const lo, hi = -32768, 32767
	adj := topology.NewAdjacency()
	adj.Link(topology.Loc(1, 1), topology.Loc(5, 5))
	adj.Link(topology.Loc(1, 1), topology.Loc(9, 2))
	base := &topology.WithBase{Inner: topology.Grid{}, Base: topology.Loc(0, 0), Gateway: topology.Loc(1, 1)}
	cases := []struct {
		name string
		topo topology.Topology
		at   topology.Location
		room int
	}{
		{"grid interior", topology.Grid{}, topology.Loc(3, 3), 4},
		{"grid corner of the range", topology.Grid{}, topology.Loc(hi, hi), 2},
		{"grid low corner of the range", topology.Grid{}, topology.Loc(lo, lo), 2},
		{"grid edge of the range", topology.Grid{}, topology.Loc(lo, 0), 3},
		{"diagonal grid interior", topology.Grid{Diag: true}, topology.Loc(3, 3), 8},
		{"diagonal grid corner of the range", topology.Grid{Diag: true}, topology.Loc(hi, lo), 3},
		{"diagonal grid edge of the range", topology.Grid{Diag: true}, topology.Loc(0, hi), 5},
		{"adjacency", adj, topology.Loc(1, 1), 2},
		{"adjacency without links", adj, topology.Loc(7, 7), 0},
		{"base", base, topology.Loc(0, 0), 1},
		{"gateway", base, topology.Loc(1, 1), 5},
		{"disk", topology.Disk{Range: 2}, topology.Loc(3, 3), 0},
		{"base over a disk", &topology.WithBase{Inner: topology.Disk{Range: 2}, Base: topology.Loc(0, 0), Gateway: topology.Loc(1, 1)}, topology.Loc(1, 1), 0},
	}
	for _, c := range cases {
		m := NewMedium(sim.New(1), c.topo, ZeroLoss())
		if got := m.Port(c.at).NeighborRoom(); got != c.room {
			t.Errorf("%s: the port at %v has room for %d links, want %d", c.name, c.at, got, c.room)
		}
	}
}

// degree counts the locations Connected to src, attached or not, over
// every coordinate the topologies of TestSizedRecordsMatchLazyOnes link.
func degree(topo topology.Topology, src topology.Location) int {
	n := 0
	for y := int16(-1); y <= 11; y++ {
		for x := int16(-1); x <= 11; x++ {
			if loc := topology.Loc(x, y); loc != src && topo.Connected(src, loc) {
				n++
			}
		}
	}
	return n
}

// TestSizedRecordsMatchLazyOnes: for every topology the first broadcast
// from each port reaches the attached locations Connected to it, in (Y,X)
// order — what a record grown on use delivers to — whether the record was
// sized at build (enumerating topologies) or not (plainTopology). After a
// mote moves, the record of its new coordinate is sized from the degree
// there, and its broadcast again reaches exactly its new neighbours.
func TestSizedRecordsMatchLazyOnes(t *testing.T) {
	adj := topology.NewAdjacency()
	field := topology.GridLocations(4, 4)
	for i, u := range field {
		adj.Link(u, field[(i+1)%len(field)])
		adj.Link(u, field[(i*7+3)%len(field)])
	}
	cases := []struct {
		name  string
		topo  func() topology.Topology
		base  bool              // attach a base station at (0,0)
		moved topology.Location // where (2,2) moves to
	}{
		{"Grid", func() topology.Topology { return topology.Grid{} }, false, topology.Loc(5, 4)},
		{"Grid diagonal", func() topology.Topology { return topology.Grid{Diag: true} }, false, topology.Loc(5, 4)},
		{"Adjacency", func() topology.Topology { return adj }, false, topology.Loc(9, 9)},
		{"WithBase", func() topology.Topology {
			return &topology.WithBase{Inner: topology.Grid{}, Base: topology.Loc(0, 0), Gateway: topology.Loc(1, 1)}
		}, true, topology.Loc(5, 4)},
		{"no enumerator", func() topology.Topology { return plainTopology{topology.Grid{Diag: true}} }, false, topology.Loc(5, 4)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New(1)
			topo := c.topo()
			m := NewMedium(s, topo, ZeroLoss())
			type hop struct{ from, to topology.Location }
			var heard []hop
			m.Trace = func(f Frame, to topology.Location, delivered bool) {
				if delivered {
					heard = append(heard, hop{f.Src, to})
				}
			}
			locs := slices.Clone(field)
			if c.base {
				locs = append(locs, topology.Loc(0, 0))
			}
			ports := make(map[topology.Location]*Port)
			for _, loc := range locs {
				if err := m.Attach(loc, receiverFunc(func(Frame) {})); err != nil {
					t.Fatal(err)
				}
				ports[loc] = m.Port(loc)
			}
			// want lists what a record grown on use delivers to: every
			// attached location Connected to src, in (Y,X) order.
			want := func(src topology.Location) []hop {
				var hs []hop
				for loc := range ports {
					if loc != src && topo.Connected(src, loc) {
						hs = append(hs, hop{src, loc})
					}
				}
				slices.SortFunc(hs, func(a, b hop) int { return a.to.Compare(b.to) })
				return hs
			}
			send := func(src topology.Location) {
				t.Helper()
				heard = heard[:0]
				p := ports[src]
				_, sized := topo.(topology.NeighborEnumerator)
				m.SendFrom(p, Frame{Src: src, Dst: Broadcast, Kind: KindBeacon})
				if err := s.Run(s.Now() + time.Second); err != nil {
					t.Fatal(err)
				}
				if w := want(src); !slices.Equal(heard, w) {
					t.Fatalf("broadcast from %v reached %v, want %v", src, heard, w)
				}
				if fo := recordOf(m, p, src); sized && cap(fo.links) != degree(topo, src) {
					t.Fatalf("%v's record has room for %d links, want its degree %d", src, cap(fo.links), degree(topo, src))
				}
			}
			for _, loc := range locs {
				send(loc)
			}
			from := topology.Loc(2, 2)
			if err := m.Move(from, c.moved); err != nil {
				t.Fatal(err)
			}
			ports[c.moved] = ports[from]
			delete(ports, from)
			send(c.moved)
		})
	}
}
