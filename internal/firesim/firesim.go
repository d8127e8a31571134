// Package firesim models the wildfire environment of the paper's
// motivating example (§2.1) and usability case study (§5): a fire ignites
// at a point and spreads cell by cell with the prevailing conditions,
// driving the temperature readings that FIREDETECTOR agents sample.
//
// The model is a deterministic cellular spread on the integer grid: a
// burning cell ignites each 4-connected neighbor after SpreadEvery of
// virtual time. Temperature at a location rises sharply once its cell
// burns and falls off with distance to the nearest flame, so the paper's
// "temperature > 200 means fire" threshold (Figure 13) detects exactly the
// burning region.
package firesim

import (
	"slices"
	"time"

	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

// Temperatures of the model, in the units of Figure 13 (fire > 200).
const (
	// AmbientTemp is the reading far from any fire.
	AmbientTemp = 25
	// BurnTemp is the reading inside a burning cell.
	BurnTemp = 400
	// edgeTemp is the reading one cell away from a flame.
	edgeTemp = 150
)

// DefaultSpreadEvery is how long a burning cell takes to ignite its
// neighbors.
const DefaultSpreadEvery = 30 * time.Second

// Fire is the spreading environment. It implements sensor.Field for the
// temperature sensor; other sensors read ambient values.
//
// The zero value is a field with no fire; construct with New to set the
// spread rate.
type Fire struct {
	// SpreadEvery is the per-generation spread period (0 = default).
	SpreadEvery time.Duration
	// Bounds clips the spread to the deployment area when non-nil.
	Bounds *Rect

	ignitions map[topology.Location]time.Duration
}

// Rect is an inclusive rectangle.
type Rect struct {
	MinX, MinY, MaxX, MaxY int16
}

// Contains reports whether l lies in the rectangle.
func (r Rect) Contains(l topology.Location) bool {
	return l.X >= r.MinX && l.X <= r.MaxX && l.Y >= r.MinY && l.Y <= r.MaxY
}

// GridBounds returns the bounds of a w×h grid rooted at (1,1).
func GridBounds(w, h int) Rect {
	return Rect{MinX: 1, MinY: 1, MaxX: int16(w), MaxY: int16(h)}
}

// New creates a fire environment with the given spread period.
func New(spreadEvery time.Duration, bounds *Rect) *Fire {
	if spreadEvery <= 0 {
		spreadEvery = DefaultSpreadEvery
	}
	return &Fire{
		SpreadEvery: spreadEvery,
		Bounds:      bounds,
		ignitions:   make(map[topology.Location]time.Duration),
	}
}

// Ignite starts a fire at loc at virtual time at. Igniting a cell that is
// already burning earlier is a no-op.
func (f *Fire) Ignite(loc topology.Location, at time.Duration) {
	if f.ignitions == nil {
		f.ignitions = make(map[topology.Location]time.Duration)
	}
	if t, ok := f.ignitions[loc]; ok && t <= at {
		return
	}
	f.ignitions[loc] = at
}

// Extinguish removes all fire (the blaze has died, §2.1).
func (f *Fire) Extinguish() {
	f.ignitions = make(map[topology.Location]time.Duration)
}

// spreadEvery returns the effective spread period.
func (f *Fire) spreadEvery() time.Duration {
	if f.SpreadEvery <= 0 {
		return DefaultSpreadEvery
	}
	return f.SpreadEvery
}

// IgnitionTime returns when loc catches fire given the current ignition
// set, or false if it never does. Spread is Manhattan-metric: a cell at
// grid distance d from an ignition point burns at ignition + d×SpreadEvery.
func (f *Fire) IgnitionTime(loc topology.Location) (time.Duration, bool) {
	if f.Bounds != nil && !f.Bounds.Contains(loc) {
		return 0, false
	}
	best := time.Duration(-1)
	for src, t0 := range f.ignitions {
		d := time.Duration(src.GridHops(loc)) * f.spreadEvery()
		if at := t0 + d; best < 0 || at < best {
			best = at
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// Burning reports whether loc is on fire at time now.
func (f *Fire) Burning(loc topology.Location, now time.Duration) bool {
	at, ok := f.IgnitionTime(loc)
	return ok && now >= at
}

// BurningCells returns all burning cells within bounds at time now, sorted
// by (Y,X). A nil bounds uses the fire's own Bounds; if both are nil only
// cells reachable from ignition points within 64 steps are scanned.
func (f *Fire) BurningCells(now time.Duration, bounds *Rect) []topology.Location {
	r := bounds
	if r == nil {
		r = f.Bounds
	}
	var out []topology.Location
	if r != nil {
		for y := r.MinY; y <= r.MaxY; y++ {
			for x := r.MinX; x <= r.MaxX; x++ {
				if f.Burning(topology.Loc(x, y), now) {
					out = append(out, topology.Loc(x, y))
				}
			}
		}
		return out
	}
	seen := make(map[topology.Location]bool)
	for src := range f.ignitions {
		for dx := int16(-64); dx <= 64; dx++ {
			for dy := int16(-64); dy <= 64; dy++ {
				l := topology.Loc(src.X+dx, src.Y+dy)
				if !seen[l] && f.Burning(l, now) {
					seen[l] = true
					out = append(out, l)
				}
			}
		}
	}
	slices.SortFunc(out, topology.Location.Compare)
	return out
}

// nearestFlameDist returns the Manhattan distance from loc to the nearest
// burning cell at now, or -1 when nothing burns.
func (f *Fire) nearestFlameDist(loc topology.Location, now time.Duration) int {
	best := -1
	for src, t0 := range f.ignitions {
		if now < t0 {
			continue
		}
		// The burning region around src is the Manhattan ball of radius
		// floor((now-t0)/spread); distance from loc to that ball:
		radius := int((now - t0) / f.spreadEvery())
		d := loc.GridHops(src) - radius
		if d < 0 {
			d = 0
		}
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}

// Sample implements sensor.Field. Temperature reflects the fire; photo and
// sound read ambient constants; smoke mirrors temperature coarsely.
func (f *Fire) Sample(loc topology.Location, s tuplespace.SensorType, now time.Duration) int16 {
	switch s {
	case tuplespace.SensorTemperature:
		return f.temperature(loc, now)
	case tuplespace.SensorSmoke:
		t := f.temperature(loc, now)
		if t > 200 {
			return 1
		}
		return 0
	case tuplespace.SensorPhoto:
		return 500 // daylight
	case tuplespace.SensorSound:
		return 10
	default:
		return 0
	}
}

func (f *Fire) temperature(loc topology.Location, now time.Duration) int16 {
	if f.Bounds != nil && !f.Bounds.Contains(loc) {
		return AmbientTemp
	}
	d := f.nearestFlameDist(loc, now)
	switch {
	case d < 0:
		return AmbientTemp
	case d == 0:
		return BurnTemp
	case d == 1:
		return edgeTemp
	case d == 2:
		return 80
	default:
		return AmbientTemp
	}
}

// Perimeter returns the non-burning cells within bounds that are
// 4-adjacent to a burning cell — where the paper's FIRETRACKER agents
// should sit to form their dynamic barrier.
func (f *Fire) Perimeter(now time.Duration, bounds Rect) []topology.Location {
	var out []topology.Location
	for y := bounds.MinY; y <= bounds.MaxY; y++ {
		for x := bounds.MinX; x <= bounds.MaxX; x++ {
			l := topology.Loc(x, y)
			if f.Burning(l, now) {
				continue
			}
			adjacent := false
			for _, nb := range [4]topology.Location{
				{X: l.X + 1, Y: l.Y}, {X: l.X - 1, Y: l.Y},
				{X: l.X, Y: l.Y + 1}, {X: l.X, Y: l.Y - 1},
			} {
				if f.Burning(nb, now) {
					adjacent = true
					break
				}
			}
			if adjacent {
				out = append(out, l)
			}
		}
	}
	return out
}
