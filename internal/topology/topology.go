// Package topology models node placement and connectivity.
//
// Agilla addresses nodes by physical location rather than network address
// (§2.2 of the paper): "A node's location is its address." The paper's
// testbed is a 5×5 grid of MICA2 motes where the node in the lower-left
// corner has location (1,1) and the TinyOS network stack was modified to
// drop all messages except those from immediate grid neighbors (§4).
package topology

import (
	"fmt"
	"math"
)

// Location is a node address: a point in the deployment plane.
// Coordinates are 16-bit signed integers on the wire (see internal/wire).
type Location struct {
	X, Y int16
}

// Loc is shorthand for constructing a Location.
func Loc(x, y int16) Location { return Location{X: x, Y: y} }

// String renders the location as "(x,y)".
func (l Location) String() string { return fmt.Sprintf("(%d,%d)", l.X, l.Y) }

// Compare orders locations by (Y, X), row by row: it returns a negative
// number, zero or a positive number as l sorts before, with or after o.
// Two int16 X coordinates differ by less than 1<<16, so Y<<16 + X orders
// by Y first without a branch: binary searches on hot paths call this.
func (l Location) Compare(o Location) int {
	return int(l.Y)<<16 + int(l.X) - (int(o.Y)<<16 + int(o.X))
}

// IsZero reports whether the location is the zero location (0,0), which
// Agilla deployments reserve for the base station / injector.
func (l Location) IsZero() bool { return l.X == 0 && l.Y == 0 }

// Dist returns the Euclidean distance between two locations.
func (l Location) Dist(o Location) float64 {
	dx := float64(l.X) - float64(o.X)
	dy := float64(l.Y) - float64(o.Y)
	return math.Sqrt(dx*dx + dy*dy)
}

// GridHops returns the Manhattan distance, which equals the hop count on a
// 4-connected grid with one node per unit cell.
func (l Location) GridHops(o Location) int {
	dx := int(l.X) - int(o.X)
	if dx < 0 {
		dx = -dx
	}
	dy := int(l.Y) - int(o.Y)
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Within reports whether o lies within error radius eps of l. Agilla allows
// a small error when addressing by location (§2.2).
func (l Location) Within(o Location, eps float64) bool { return l.Dist(o) <= eps }

// Topology decides which pairs of nodes can hear each other.
type Topology interface {
	// Connected reports whether a frame transmitted at from can be
	// received at to. It need not be symmetric, though all provided
	// implementations are.
	Connected(from, to Location) bool
}

// NeighborEnumerator is implemented by topologies that can enumerate a
// small superset of the locations possibly Connected to a source,
// letting the radio medium build broadcast fan-out lists in O(degree)
// instead of scanning every attached node — the difference between a
// million-mote grid deployment starting in seconds and in hours.
//
// EnumerateNeighbors calls visit for each candidate and reports whether
// enumeration was available; on false the caller must fall back to a
// full scan. Candidates may include duplicates, unattached locations,
// or locations that are not actually Connected — callers filter — but
// every location Connected to src must be visited.
type NeighborEnumerator interface {
	EnumerateNeighbors(src Location, visit func(Location)) bool
}

// Movable is implemented by topologies whose connectivity is explicit
// state keyed by location and must be rewritten when a node moves
// (Adjacency, *WithBase). Geometric topologies (Grid, Disk) derive
// connectivity from coordinates alone and need no update: a moved node's
// links simply re-derive from its new position.
type Movable interface {
	// Rekey records that the node at from now sits at to. For explicit
	// link sets the node keeps its edges to the same partners (the
	// deterministic rule for non-geometric moves); callers that want
	// different semantics relink explicitly.
	Rekey(from, to Location)
}

// Grid is the paper's testbed: nodes on integer coordinates with links only
// between immediate grid neighbors. Diag selects 8-connectivity instead of
// the default 4-connectivity.
type Grid struct {
	Diag bool
}

// Connected implements Topology.
func (g Grid) Connected(from, to Location) bool {
	if from == to {
		return false
	}
	dx := int(from.X) - int(to.X)
	if dx < 0 {
		dx = -dx
	}
	dy := int(from.Y) - int(to.Y)
	if dy < 0 {
		dy = -dy
	}
	if g.Diag {
		return dx <= 1 && dy <= 1
	}
	return dx+dy == 1
}

// EnumerateNeighbors implements NeighborEnumerator: the 4 (or 8, with
// Diag) adjacent cells, clipped at the int16 coordinate range.
func (g Grid) EnumerateNeighbors(src Location, visit func(Location)) bool {
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			if !g.Diag && dx != 0 && dy != 0 {
				continue
			}
			x, y := int(src.X)+dx, int(src.Y)+dy
			if x < math.MinInt16 || x > math.MaxInt16 || y < math.MinInt16 || y > math.MaxInt16 {
				continue
			}
			visit(Loc(int16(x), int16(y)))
		}
	}
	return true
}

// WithBase augments an inner topology with one extra bidirectional link
// between a base station and its gateway mote. The paper's testbed wires a
// laptop base station at (0,0) to the network through a MIB510 interface
// board (§3.1); node (0,0) is one hop from the gateway at (1,1), which makes
// (h,1) exactly h hops from the base — the layout behind Figures 9 and 10.
// Build it with NewWithBase (a literal cannot enumerate its neighbours),
// and do not replace Inner afterwards.
type WithBase struct {
	Inner   Topology
	Base    Location
	Gateway Location
	en      NeighborEnumerator // Inner as a NeighborEnumerator, or nil
}

// NewWithBase returns inner with a link between base and gateway. It
// asserts inner's NeighborEnumerator once: the radio medium enumerates on
// its send path, where an assertion per call may also build the runtime's
// type-assertion cache, an allocation.
func NewWithBase(inner Topology, base, gateway Location) *WithBase {
	w := &WithBase{Inner: inner, Base: base, Gateway: gateway}
	w.en, _ = inner.(NeighborEnumerator)
	return w
}

// Connected implements Topology.
func (w WithBase) Connected(from, to Location) bool {
	if (from == w.Base && to == w.Gateway) || (from == w.Gateway && to == w.Base) {
		return true
	}
	if from == w.Base || to == w.Base {
		return false
	}
	return w.Inner.Connected(from, to)
}

// EnumerateNeighbors implements NeighborEnumerator when the inner
// topology does: the base-gateway bridge plus the inner candidates.
func (w WithBase) EnumerateNeighbors(src Location, visit func(Location)) bool {
	if src == w.Base {
		visit(w.Gateway)
		return true
	}
	if w.en == nil {
		return false
	}
	if src == w.Gateway {
		visit(w.Base)
	}
	return w.en.EnumerateNeighbors(src, visit)
}

// Rekey implements Movable: a moving gateway carries the base bridge with
// it, and the inner topology is rekeyed when it is itself Movable. Only
// meaningful on a *WithBase shared with the radio medium.
func (w *WithBase) Rekey(from, to Location) {
	if w.Gateway == from {
		w.Gateway = to
	}
	if mv, ok := w.Inner.(Movable); ok {
		mv.Rekey(from, to)
	}
}

// Disk connects all pairs within Range of each other (unit-disk model).
type Disk struct {
	Range float64
}

// Connected implements Topology.
func (d Disk) Connected(from, to Location) bool {
	if from == to {
		return false
	}
	return from.Dist(to) <= d.Range
}

// GridLocations enumerates the locations of a w×h grid whose lower-left
// node is at (1,1), matching Figure 3 of the paper.
func GridLocations(w, h int) []Location {
	locs := make([]Location, 0, w*h)
	for y := 1; y <= h; y++ {
		for x := 1; x <= w; x++ {
			locs = append(locs, Loc(int16(x), int16(y)))
		}
	}
	return locs
}

// LineLocations enumerates n locations in a row starting at (1,1); handy
// for hop-count experiments.
func LineLocations(n int) []Location {
	locs := make([]Location, 0, n)
	for x := 1; x <= n; x++ {
		locs = append(locs, Loc(int16(x), 1))
	}
	return locs
}

// ClosestTo returns the index in locs of the location closest to target,
// or -1 if locs is empty. Ties break toward the lower index, which keeps
// simulations deterministic.
func ClosestTo(target Location, locs []Location) int {
	best := -1
	bestDist := math.Inf(1)
	for i, l := range locs {
		if d := l.Dist(target); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}
