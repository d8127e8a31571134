package topology

import (
	"testing"
	"testing/quick"
)

func TestLocationString(t *testing.T) {
	if got := Loc(3, -2).String(); got != "(3,-2)" {
		t.Fatalf("String = %q", got)
	}
}

func TestIsZero(t *testing.T) {
	if !Loc(0, 0).IsZero() {
		t.Fatal("(0,0) should be zero")
	}
	if Loc(1, 0).IsZero() {
		t.Fatal("(1,0) should not be zero")
	}
}

func TestDistAndHops(t *testing.T) {
	tests := []struct {
		a, b Location
		dist float64
		hops int
	}{
		{Loc(1, 1), Loc(1, 1), 0, 0},
		{Loc(1, 1), Loc(2, 1), 1, 1},
		{Loc(1, 1), Loc(4, 5), 5, 7},
		{Loc(5, 1), Loc(1, 1), 4, 4},
		{Loc(-1, -1), Loc(2, 3), 5, 7},
	}
	for _, tt := range tests {
		if got := tt.a.Dist(tt.b); got != tt.dist {
			t.Errorf("Dist(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.dist)
		}
		if got := tt.a.GridHops(tt.b); got != tt.hops {
			t.Errorf("GridHops(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.hops)
		}
	}
}

func TestWithin(t *testing.T) {
	if !Loc(1, 1).Within(Loc(1, 2), 1.0) {
		t.Fatal("distance-1 points should be within eps=1")
	}
	if Loc(1, 1).Within(Loc(3, 3), 1.0) {
		t.Fatal("far points should not be within eps=1")
	}
}

func TestGridConnectivity(t *testing.T) {
	g4 := Grid{}
	g8 := Grid{Diag: true}
	tests := []struct {
		a, b   Location
		c4, c8 bool
	}{
		{Loc(1, 1), Loc(1, 1), false, false}, // self
		{Loc(1, 1), Loc(2, 1), true, true},
		{Loc(1, 1), Loc(1, 2), true, true},
		{Loc(1, 1), Loc(2, 2), false, true}, // diagonal
		{Loc(1, 1), Loc(3, 1), false, false},
		{Loc(2, 2), Loc(1, 1), false, true},
	}
	for _, tt := range tests {
		if got := g4.Connected(tt.a, tt.b); got != tt.c4 {
			t.Errorf("grid4 Connected(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.c4)
		}
		if got := g8.Connected(tt.a, tt.b); got != tt.c8 {
			t.Errorf("grid8 Connected(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.c8)
		}
	}
}

func TestDiskConnectivity(t *testing.T) {
	d := Disk{Range: 1.5}
	if !d.Connected(Loc(0, 0), Loc(1, 1)) {
		t.Fatal("sqrt(2) <= 1.5 should connect")
	}
	if d.Connected(Loc(0, 0), Loc(2, 0)) {
		t.Fatal("2 > 1.5 should not connect")
	}
	if d.Connected(Loc(0, 0), Loc(0, 0)) {
		t.Fatal("self should not connect")
	}
}

func TestGridLocations(t *testing.T) {
	locs := GridLocations(5, 5)
	if len(locs) != 25 {
		t.Fatalf("len = %d, want 25", len(locs))
	}
	if locs[0] != Loc(1, 1) {
		t.Fatalf("first = %v, want (1,1)", locs[0])
	}
	if locs[24] != Loc(5, 5) {
		t.Fatalf("last = %v, want (5,5)", locs[24])
	}
	seen := map[Location]bool{}
	for _, l := range locs {
		if seen[l] {
			t.Fatalf("duplicate location %v", l)
		}
		seen[l] = true
	}
}

func TestLineLocations(t *testing.T) {
	locs := LineLocations(6)
	if len(locs) != 6 {
		t.Fatalf("len = %d", len(locs))
	}
	for i, l := range locs {
		if l != Loc(int16(i+1), 1) {
			t.Fatalf("locs[%d] = %v", i, l)
		}
	}
}

func TestClosestTo(t *testing.T) {
	locs := []Location{Loc(1, 1), Loc(3, 3), Loc(5, 1)}
	if got := ClosestTo(Loc(4, 1), locs); got != 2 {
		t.Fatalf("ClosestTo = %d, want 2", got)
	}
	if got := ClosestTo(Loc(0, 0), nil); got != -1 {
		t.Fatalf("ClosestTo(empty) = %d, want -1", got)
	}
	// tie breaks toward lower index
	if got := ClosestTo(Loc(2, 2), []Location{Loc(1, 1), Loc(3, 3)}); got != 0 {
		t.Fatalf("tie break = %d, want 0", got)
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by int16) bool {
		a, b := Loc(ax, ay), Loc(bx, by)
		return a.Dist(b) == b.Dist(a) && a.GridHops(b) == b.GridHops(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGridSymmetryProperty(t *testing.T) {
	g := Grid{}
	f := func(ax, ay, bx, by int8) bool {
		a, b := Loc(int16(ax), int16(ay)), Loc(int16(bx), int16(by))
		return g.Connected(a, b) == g.Connected(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: on a 4-connected grid, connectivity implies hop distance 1.
func TestGridConnectedImpliesAdjacent(t *testing.T) {
	g := Grid{}
	f := func(ax, ay, bx, by int8) bool {
		a, b := Loc(int16(ax), int16(ay)), Loc(int16(bx), int16(by))
		if g.Connected(a, b) {
			return a.GridHops(b) == 1
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLocationCompare pins Compare to the (Y, X) order, the extremes of
// int16 included, where a difference of X coordinates is largest.
func TestLocationCompare(t *testing.T) {
	vals := []int16{-32768, -32767, -1, 0, 1, 32766, 32767}
	for _, ay := range vals {
		for _, ax := range vals {
			for _, by := range vals {
				for _, bx := range vals {
					a, b := Loc(ax, ay), Loc(bx, by)
					want := 0
					switch {
					case ay < by || ay == by && ax < bx:
						want = -1
					case a != b:
						want = 1
					}
					if got := a.Compare(b); (got < 0) != (want < 0) || (got > 0) != (want > 0) {
						t.Fatalf("%v.Compare(%v) = %d, want the sign of %d", a, b, got, want)
					}
				}
			}
		}
	}
}
