package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// Layout is a deployment plan: where the motes sit, which pairs of them
// can hear each other, and which mote the base station bridges into. The
// paper's testbed is one instance (a 5×5 grid whose gateway is (1,1),
// §3.1/§4); a Layout generalizes that to lines, rings, random disk
// graphs, and arbitrary user-supplied placements, all of which exercise
// the same greedy geographic routing and neighbor discovery.
type Layout struct {
	// Name labels the layout in diagnostics ("grid 5x5", "ring 12", ...).
	Name string
	// Nodes are the mote locations, excluding the base station. Order is
	// the deployment order (node indices follow it).
	Nodes []Location
	// Links decides which motes hear each other.
	Links Topology
	// Gateway is the mote bridged to the base station (the MIB510 link of
	// §3.1). It must be one of Nodes.
	Gateway Location
}

// MoveNode relocates the node at from to to. The Nodes slice is copied
// on write so previously returned snapshots stay intact.
// It reports whether a node sat at from; a move onto an occupied location
// or onto from itself is refused.
//
// MoveNode updates placement only. Connectivity follows automatically for
// geometric Links (Grid, Disk); explicit link sets are rekeyed by
// whoever owns the live Topology — the radio medium inside a deployment,
// or the caller via Movable for a standalone layout. Layouts are often
// shared with a Medium wrapping the same Links value, so rekeying here
// too would apply the move twice.
func (l *Layout) MoveNode(from, to Location) bool {
	if from == to {
		return false
	}
	idx := -1
	for i, loc := range l.Nodes {
		if loc == to {
			return false
		}
		if loc == from {
			idx = i
		}
	}
	if idx < 0 {
		return false
	}
	nodes := append([]Location(nil), l.Nodes...)
	nodes[idx] = to
	l.Nodes = nodes
	if l.Gateway == from {
		l.Gateway = to
	}
	return true
}

// Validate checks structural invariants: at least one node, distinct
// locations, no node on the base location, and a gateway that is one of
// the nodes.
func (l Layout) Validate(base Location) error {
	if len(l.Nodes) == 0 {
		return fmt.Errorf("topology: layout %q has no nodes", l.Name)
	}
	seen := make(map[Location]bool, len(l.Nodes))
	gw := false
	for _, loc := range l.Nodes {
		if seen[loc] {
			return fmt.Errorf("topology: layout %q places two nodes at %v", l.Name, loc)
		}
		seen[loc] = true
		if loc == base {
			return fmt.Errorf("topology: layout %q places a node on the base station at %v", l.Name, base)
		}
		if loc == l.Gateway {
			gw = true
		}
	}
	if !gw {
		return fmt.Errorf("topology: layout %q gateway %v is not one of its nodes", l.Name, l.Gateway)
	}
	if l.Links == nil {
		return fmt.Errorf("topology: layout %q has no connectivity model", l.Name)
	}
	return nil
}

// IsConnected reports whether every node can reach every other node over
// Links (ignoring the base station bridge). Disconnected layouts are legal
// but usually a configuration mistake for scenario work.
func (l Layout) IsConnected() bool {
	if len(l.Nodes) == 0 {
		return false
	}
	reached := map[Location]bool{l.Nodes[0]: true}
	frontier := []Location{l.Nodes[0]}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, next := range l.Nodes {
			if reached[next] || !l.Links.Connected(cur, next) {
				continue
			}
			reached[next] = true
			frontier = append(frontier, next)
		}
	}
	return len(reached) == len(l.Nodes)
}

// Bounds returns the inclusive bounding box of the layout's nodes.
func (l Layout) Bounds() (minX, minY, maxX, maxY int16) {
	if len(l.Nodes) == 0 {
		return 0, 0, 0, 0
	}
	minX, minY = l.Nodes[0].X, l.Nodes[0].Y
	maxX, maxY = minX, minY
	for _, loc := range l.Nodes[1:] {
		minX, minY = min(minX, loc.X), min(minY, loc.Y)
		maxX, maxY = max(maxX, loc.X), max(maxY, loc.Y)
	}
	return minX, minY, maxX, maxY
}

// GridLayout is the paper's testbed shape: a w×h grid rooted at (1,1) with
// links between immediate 4-neighbors and the gateway at (1,1).
func GridLayout(w, h int) Layout {
	return Layout{
		Name:    fmt.Sprintf("grid %dx%d", w, h),
		Nodes:   GridLocations(w, h),
		Links:   Grid{},
		Gateway: Loc(1, 1),
	}
}

// LineLayout is n motes in a row starting at (1,1); node (h,1) is exactly
// h hops from the base, the shape behind the Figure 9/10 hop sweeps.
func LineLayout(n int) Layout {
	return Layout{
		Name:    fmt.Sprintf("line %d", n),
		Nodes:   LineLocations(n),
		Links:   Grid{},
		Gateway: Loc(1, 1),
	}
}

// RingLayout places n motes on a circle and links each to its two ring
// neighbors by explicit adjacency, so the geometry (used by greedy
// routing) and the connectivity (used by the radio) stay consistent even
// after rounding to integer coordinates. The gateway is the node closest
// to the base station.
func RingLayout(n int) Layout {
	if n < 3 {
		n = 3
	}
	// Pick a radius large enough that adjacent nodes land on distinct
	// integer coordinates (arc spacing of at least ~1.5 cells).
	r := math.Max(2, 1.5*float64(n)/(2*math.Pi))
	nodes := make([]Location, 0, n)
	used := make(map[Location]bool, n)
	for {
		nodes = nodes[:0]
		clear(used)
		c := int16(math.Ceil(r)) + 1 // keep every coordinate >= 1
		ok := true
		for i := 0; i < n; i++ {
			theta := 2 * math.Pi * float64(i) / float64(n)
			loc := Loc(c+int16(math.Round(r*math.Cos(theta))), c+int16(math.Round(r*math.Sin(theta))))
			if used[loc] {
				ok = false
				break
			}
			used[loc] = true
			nodes = append(nodes, loc)
		}
		if ok {
			break
		}
		r++ // rounding collision: widen the ring and retry
	}
	adj := NewAdjacency()
	for i := range nodes {
		adj.Link(nodes[i], nodes[(i+1)%n])
	}
	gw := nodes[ClosestTo(Loc(0, 0), nodes)]
	return Layout{Name: fmt.Sprintf("ring %d", n), Nodes: nodes, Links: adj, Gateway: gw}
}

// RandomDiskLayout scatters n motes uniformly over the [1,side]² region
// and connects pairs within radioRange (unit-disk model). Placement is
// driven by seed alone, so the same seed reproduces the same graph. The
// sampler rejects disconnected graphs and redraws (up to a bound), since a
// partitioned network can never complete a scenario; if no connected
// placement is found the last draw is returned and the caller can check
// IsConnected. The gateway is the node closest to the base station.
func RandomDiskLayout(n, side int, radioRange float64, seed int64) Layout {
	if n < 1 {
		n = 1
	}
	if side < 2 {
		side = 2
	}
	if n > side*side {
		// Only side² distinct integer cells exist; more nodes than cells
		// would spin the rejection sampler forever.
		n = side * side
	}
	if radioRange <= 0 {
		radioRange = 1.5
	}
	rng := rand.New(rand.NewSource(seed))
	var l Layout
	const maxDraws = 64
	for draw := 0; draw < maxDraws; draw++ {
		used := make(map[Location]bool, n)
		nodes := make([]Location, 0, n)
		for len(nodes) < n {
			loc := Loc(int16(rng.Intn(side))+1, int16(rng.Intn(side))+1)
			if used[loc] {
				continue
			}
			used[loc] = true
			nodes = append(nodes, loc)
		}
		l = Layout{
			Name:    fmt.Sprintf("disk n=%d side=%d r=%.2g", n, side, radioRange),
			Nodes:   nodes,
			Links:   Disk{Range: radioRange},
			Gateway: nodes[ClosestTo(Loc(0, 0), nodes)],
		}
		if l.IsConnected() {
			return l
		}
	}
	return l
}

// CustomLayout wraps explicit coordinates with a connectivity model. The
// gateway defaults to the node closest to the base station.
func CustomLayout(name string, nodes []Location, links Topology) Layout {
	l := Layout{Name: name, Nodes: append([]Location(nil), nodes...), Links: links}
	if len(nodes) > 0 {
		l.Gateway = nodes[ClosestTo(Loc(0, 0), nodes)]
	}
	return l
}

// Adjacency is an explicit symmetric link set, for layouts whose
// connectivity is not a function of geometry (rings, imported testbed
// maps, failure-injection scenarios).
type Adjacency struct {
	links map[Location]map[Location]bool
}

// NewAdjacency returns an empty link set.
func NewAdjacency() *Adjacency {
	return &Adjacency{links: make(map[Location]map[Location]bool)}
}

// Link adds a bidirectional edge between a and b.
func (a *Adjacency) Link(u, v Location) {
	if u == v {
		return
	}
	if a.links[u] == nil {
		a.links[u] = make(map[Location]bool)
	}
	if a.links[v] == nil {
		a.links[v] = make(map[Location]bool)
	}
	a.links[u][v] = true
	a.links[v][u] = true
}

// Connected implements Topology.
func (a *Adjacency) Connected(from, to Location) bool { return a.links[from][to] }

// EnumerateNeighbors implements NeighborEnumerator: exactly the
// explicit link partners of src.
func (a *Adjacency) EnumerateNeighbors(src Location, visit func(Location)) bool {
	//lint:maprange candidates are filtered and sorted by the caller
	for p := range a.links[src] {
		visit(p)
	}
	return true
}

// Rekey implements Movable: the node keeps its edges to the same
// partners under its new location.
func (a *Adjacency) Rekey(from, to Location) {
	peers, ok := a.links[from]
	if !ok || from == to {
		return
	}
	delete(a.links, from)
	a.links[to] = peers
	for p := range peers {
		delete(a.links[p], from)
		a.links[p][to] = true
	}
}
