package agilla

import (
	"errors"
	"fmt"

	"github.com/agilla-go/agilla/internal/topology"
)

// ErrDisconnected reports a topology that realized into more than one
// connected component: some motes could never exchange a frame, so any
// scenario needing them would stall. New refuses such topologies with
// this error (test with errors.Is); probe seeds ahead of time with
// Topology.Connected.
var ErrDisconnected = errors.New("agilla: topology is disconnected")

// Topology describes where motes sit and which pairs can hear each other.
// A Topology is a plan, not a network: randomized topologies are realized
// with the deployment seed at New time, so the same seed reproduces the
// same placement. Build one with Grid, Line, Ring, RandomDisk, or Custom,
// and pass it to New via WithTopology.
type Topology struct {
	name    string
	realize func(seed int64) (topology.Layout, error)
}

// String returns the topology's descriptive name.
func (t Topology) String() string { return t.name }

// fixed wraps a deterministic layout as a Topology.
func fixed(l topology.Layout) Topology {
	return Topology{name: l.Name, realize: func(int64) (topology.Layout, error) { return l, nil }}
}

// invalid is a Topology whose every realization fails with err.
func invalid(name string, err error) Topology {
	return Topology{name: name + " (invalid)", realize: func(int64) (topology.Layout, error) {
		return topology.Layout{}, err
	}}
}

// defaultTopology is what the zero Topology value means everywhere (New,
// Topology.Connected): the paper's 5×5 testbed.
func defaultTopology() Topology { return Grid(5, 5) }

// Grid is the paper's testbed shape: a w×h mote grid rooted at (1,1) with
// radio links between immediate 4-neighbors and the gateway at (1,1).
func Grid(w, h int) Topology {
	if w <= 0 || h <= 0 {
		return invalid("grid", fmt.Errorf("grid topology needs positive dimensions, got %dx%d", w, h))
	}
	return fixed(topology.GridLayout(w, h))
}

// Line places n motes in a row: mote (h,1) is exactly h hops from the
// base station, the shape behind the paper's Figure 9/10 hop sweeps.
func Line(n int) Topology {
	if n <= 0 {
		return invalid("line", fmt.Errorf("line topology needs at least 1 node, got %d", n))
	}
	return fixed(topology.LineLayout(n))
}

// Ring places n motes (minimum 3) on a circle, each linked to its two
// ring neighbors, so multi-hop traffic is relayed along the arc. Routing
// is the paper's best-effort greedy forwarding: legs approaching half the
// circumference can stall in a geometric local minimum (integer
// coordinates distort the circle), exactly as a physical deployment
// would; split long journeys into shorter waypoint legs.
func Ring(n int) Topology {
	if n < 3 {
		return invalid("ring", fmt.Errorf("ring topology needs at least 3 nodes, got %d", n))
	}
	return fixed(topology.RingLayout(n))
}

// RandomDisk scatters n motes uniformly over the [1,side]² region and
// connects pairs within radioRange of each other (unit-disk model).
// Placement is drawn from the deployment seed; the sampler redraws
// disconnected graphs, and New fails with ErrDisconnected if no connected
// placement is found at the requested density.
func RandomDisk(n, side int, radioRange float64) Topology {
	name := fmt.Sprintf("random disk n=%d side=%d r=%.2g", n, side, radioRange)
	if n < 1 || side < 2 || radioRange <= 0 {
		return invalid(name, fmt.Errorf(
			"random disk topology needs n>=1, side>=2, range>0; got n=%d side=%d r=%.2g", n, side, radioRange))
	}
	if n > side*side {
		return invalid(name, fmt.Errorf(
			"random disk topology cannot place %d distinct motes in a %d×%d region", n, side, side))
	}
	return Topology{name: name, realize: func(seed int64) (topology.Layout, error) {
		return topology.RandomDiskLayout(n, side, radioRange, seed), nil
	}}
}

// Custom deploys motes at explicit coordinates with unit-disk links of
// the given positive range. The base station bridges to the mote closest
// to (0,0). No coordinate may be (0,0) (reserved for the base station)
// and no two motes may share a location.
func Custom(radioRange float64, locs ...Location) Topology {
	if radioRange <= 0 {
		return invalid("custom", fmt.Errorf("custom topology needs a positive radio range, got %.2g", radioRange))
	}
	return fixed(topology.CustomLayout(fmt.Sprintf("custom %d nodes", len(locs)), locs, topology.Disk{Range: radioRange}))
}

// Connected realizes the topology with seed and reports whether every
// mote can reach every other over its links — the check New makes before
// deploying, so probing seeds with it finds the ones New accepts. A
// partitioned realization (RandomDisk at low density) reports
// (false, nil): that is the answer, not a failure. Other realization
// problems (invalid parameters) surface as the error.
func (t Topology) Connected(seed int64) (bool, error) {
	if t.realize == nil {
		t = defaultTopology()
	}
	l, err := t.realize(seed)
	if err != nil {
		return false, err
	}
	return l.IsConnected(), nil
}
