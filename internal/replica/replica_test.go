package replica

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

func tup(v int16) tuplespace.Tuple {
	return tuplespace.T(tuplespace.Str("k"), tuplespace.Int(v))
}

func origin(x, y int16, seq uint16) Origin {
	return Origin{Node: topology.Loc(x, y), Seq: seq}
}

// contains reports whether the origin is known, and whether it is
// tombstoned.
func contains(s *Set, o Origin) (removed, ok bool) {
	i, ok := s.find(o)
	return ok && s.entries[i].Removed, ok
}

func TestAddDedupAndTombstoneWins(t *testing.T) {
	s := NewSet(0)
	o := origin(1, 1, 1)
	if !s.Add(o, tup(7)) {
		t.Fatal("first add rejected")
	}
	if s.Add(o, tup(7)) {
		t.Fatal("duplicate add accepted")
	}
	prior, wasLive, changed := s.Tombstone(o)
	if !changed || !wasLive || !prior.Equal(tup(7)) {
		t.Fatalf("tombstone: prior=%v wasLive=%v changed=%v", prior, wasLive, changed)
	}
	if _, _, changed := s.Tombstone(o); changed {
		t.Fatal("tombstone not idempotent")
	}
	// The add must never come back, in any order.
	if s.Add(o, tup(7)) {
		t.Fatal("add resurrected a tombstoned entry")
	}
	if s.LiveCount() != 0 {
		t.Fatalf("live = %d, want 0", s.LiveCount())
	}
}

func TestRemoveBeforeAdd(t *testing.T) {
	s := NewSet(0)
	o := origin(2, 3, 5)
	if _, wasLive, changed := s.Tombstone(o); !changed || wasLive {
		t.Fatal("bare tombstone not recorded")
	}
	if s.Add(o, tup(1)) {
		t.Fatal("add applied over a bare tombstone")
	}
	// A bare tombstone must not advance AddMax: the peer's adds below the
	// gap still need to flow.
	for _, l := range s.Digest() {
		if l.AddMax != 0 {
			t.Fatalf("AddMax = %d after bare tombstone, want 0", l.AddMax)
		}
	}
}

func TestDigestDeltaConvergence(t *testing.T) {
	a, b := NewSet(0), NewSet(0)
	// a holds entries from two origins, with one tombstone; b holds a
	// disjoint entry.
	a.Add(origin(1, 1, 1), tup(1))
	a.Add(origin(1, 1, 2), tup(2))
	a.Add(origin(4, 2, 1), tup(3))
	a.Tombstone(origin(1, 1, 2))
	b.Add(origin(2, 5, 1), tup(9))

	// Anti-entropy rounds until quiescent: each side deltas what the
	// other's digest shows missing.
	for i := 0; i < 4; i++ {
		b.Merge(a.DeltaFor(b.Digest(), 100))
		a.Merge(b.DeltaFor(a.Digest(), 100))
	}
	if a.Len() != b.Len() || a.LiveCount() != b.LiveCount() {
		t.Fatalf("sets diverge: a=%d/%d b=%d/%d", a.Len(), a.LiveCount(), b.Len(), b.LiveCount())
	}
	if a.NeedsFrom(b.Digest()) || b.NeedsFrom(a.Digest()) {
		t.Fatal("converged sets still report divergence")
	}
	if removed, ok := contains(b, origin(1, 1, 2)); !ok || !removed {
		t.Fatal("tombstone did not propagate")
	}
	if got := len(b.Live()); got != 3 {
		t.Fatalf("b has %d live entries, want 3", got)
	}
}

func TestDeltaCapKeepsPrefix(t *testing.T) {
	a, b := NewSet(0), NewSet(0)
	for i := uint16(1); i <= 10; i++ {
		a.Add(origin(1, 1, i), tup(int16(i)))
	}
	// Pull with a tiny cap: each round must extend b's prefix, never
	// leave a hole.
	for round := 0; round < 10 && b.NeedsFrom(a.Digest()); round++ {
		b.Merge(a.DeltaFor(b.Digest(), 3))
		max := b.Digest()[0].AddMax
		for i := uint16(1); i <= max; i++ {
			if _, ok := contains(b, origin(1, 1, i)); !ok {
				t.Fatalf("hole at seq %d below AddMax %d", i, max)
			}
		}
	}
	if b.LiveCount() != 10 {
		t.Fatalf("b converged to %d entries, want 10", b.LiveCount())
	}
}

func TestDivergentTombstonesConverge(t *testing.T) {
	// Both sides hold the same adds but tombstone different entries —
	// counts match, so only the removal hash can expose the divergence.
	a, b := NewSet(0), NewSet(0)
	for i := uint16(1); i <= 3; i++ {
		a.Add(origin(1, 1, i), tup(int16(i)))
		b.Add(origin(1, 1, i), tup(int16(i)))
	}
	a.Tombstone(origin(1, 1, 1))
	b.Tombstone(origin(1, 1, 2))
	for i := 0; i < 3; i++ {
		b.Merge(a.DeltaFor(b.Digest(), 100))
		a.Merge(b.DeltaFor(a.Digest(), 100))
	}
	if a.LiveCount() != 1 || b.LiveCount() != 1 {
		t.Fatalf("live counts %d/%d after converge, want 1/1", a.LiveCount(), b.LiveCount())
	}
	if a.NeedsFrom(b.Digest()) || b.NeedsFrom(a.Digest()) {
		t.Fatal("divergent tombstones never converged")
	}
}

func TestCapAdmitsTombstones(t *testing.T) {
	s := NewSet(2)
	s.Add(origin(1, 1, 1), tup(1))
	s.Add(origin(1, 1, 2), tup(2))
	if s.Add(origin(1, 1, 3), tup(3)) {
		t.Fatal("add accepted past the cap")
	}
	if _, _, changed := s.Tombstone(origin(9, 9, 1)); !changed {
		t.Fatal("tombstone rejected at cap — removes must never starve")
	}
}

func TestFindLocalAndLiveMatch(t *testing.T) {
	s := NewSet(0)
	self := topology.Loc(3, 3)
	s.Add(Origin{Node: self, Seq: 1}, tup(5))
	s.Add(Origin{Node: self, Seq: 2}, tup(5)) // identical tuple, later dot
	o, ok := s.FindLocal(self, tup(5))
	if !ok || o.Seq != 1 {
		t.Fatalf("FindLocal = %v/%v, want seq 1", o, ok)
	}
	s.Tombstone(o)
	o, ok = s.FindLocal(self, tup(5))
	if !ok || o.Seq != 2 {
		t.Fatalf("FindLocal after tombstone = %v/%v, want seq 2", o, ok)
	}
	if _, ok := s.LiveMatch(tuplespace.Tmpl(tuplespace.Str("k"), tuplespace.Int(5))); !ok {
		t.Fatal("LiveMatch missed a live entry")
	}
	if _, ok := s.LiveMatch(tuplespace.Tmpl(tuplespace.Str("zz"))); ok {
		t.Fatal("LiveMatch matched nothing it should")
	}
}

// --- differential oracle --------------------------------------------------

// refSet is the store as it was before the ordered one: a map of entries,
// every ordered question answered by collecting and sorting. It is kept
// as the slow oracle the ordered store is diffed against.
type refSet struct {
	max     int
	live    int
	entries map[Origin]*Entry
	nodes   map[topology.Location]*uint32 // remHash per known origin node
}

func newRefSet(max int) *refSet {
	return &refSet{max: max, entries: map[Origin]*Entry{}, nodes: map[topology.Location]*uint32{}}
}

func (s *refSet) Len() int       { return len(s.entries) }
func (s *refSet) LiveCount() int { return s.live }

func (s *refSet) remHash(loc topology.Location) *uint32 {
	if s.nodes[loc] == nil {
		s.nodes[loc] = new(uint32)
	}
	return s.nodes[loc]
}

func (s *refSet) Add(o Origin, t tuplespace.Tuple) bool {
	if _, ok := s.entries[o]; ok {
		return false
	}
	if s.max > 0 && len(s.entries) >= s.max {
		return false
	}
	s.entries[o] = &Entry{Origin: o, Tuple: t}
	s.live++
	s.remHash(o.Node)
	return true
}

func (s *refSet) Tombstone(o Origin) (prior tuplespace.Tuple, wasLive, changed bool) {
	if e, ok := s.entries[o]; ok {
		if e.Removed {
			return tuplespace.Tuple{}, false, false
		}
		prior, wasLive = e.Tuple, true
		e.Removed = true
		e.Tuple = tuplespace.Tuple{}
		s.live--
	} else {
		s.entries[o] = &Entry{Origin: o, Removed: true}
	}
	*s.remHash(o.Node) ^= dotHash(o)
	return prior, wasLive, true
}

func (s *refSet) Merge(entries []Entry) (added, removed int) {
	for _, e := range entries {
		if e.Removed {
			if _, _, changed := s.Tombstone(e.Origin); changed {
				removed++
			}
		} else if s.Add(e.Origin, e.Tuple) {
			added++
		}
	}
	return added, removed
}

func (s *refSet) sortedNodes() []topology.Location {
	out := make([]topology.Location, 0, len(s.nodes))
	for loc := range s.nodes {
		out = append(out, loc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Y != out[j].Y {
			return out[i].Y < out[j].Y
		}
		return out[i].X < out[j].X
	})
	return out
}

func (s *refSet) sortedOf(node topology.Location) []*Entry {
	var out []*Entry
	for o, e := range s.entries {
		if o.Node == node {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Origin.Seq < out[j].Origin.Seq })
	return out
}

func (s *refSet) frontier(node topology.Location) uint16 {
	f := uint16(0)
	for _, e := range s.sortedOf(node) {
		if e.Origin.Seq != f+1 {
			break
		}
		f++
	}
	return f
}

func (s *refSet) Digest() []Summary {
	out := []Summary{}
	for _, loc := range s.sortedNodes() {
		out = append(out, Summary{Node: loc, AddMax: s.frontier(loc), RemHash: *s.nodes[loc]})
	}
	return out
}

func (s *refSet) NeedsFrom(peer []Summary) bool {
	for _, l := range peer {
		h := s.nodes[l.Node]
		if h == nil {
			if l.AddMax > 0 || l.RemHash != 0 {
				return true
			}
			continue
		}
		if l.AddMax > s.frontier(l.Node) || l.RemHash != *h {
			return true
		}
	}
	return false
}

func (s *refSet) DeltaFor(peer []Summary, limit int) []Entry {
	ps := make(map[topology.Location]Summary, len(peer))
	for _, l := range peer {
		ps[l.Node] = l
	}
	var out []Entry
	for _, node := range s.sortedNodes() {
		p := ps[node]
		wantAdds := s.frontier(node) > p.AddMax
		wantRems := *s.nodes[node] != p.RemHash
		if !wantAdds && !wantRems {
			continue
		}
		for _, e := range s.sortedOf(node) {
			if len(out) >= limit {
				return out
			}
			switch {
			case e.Removed && wantRems:
				out = append(out, Entry{Origin: e.Origin, Removed: true})
			case !e.Removed && e.Origin.Seq > p.AddMax:
				out = append(out, *e)
			}
		}
	}
	return out
}

func (s *refSet) Live() []Entry {
	var out []Entry
	for _, node := range s.sortedNodes() {
		for _, e := range s.sortedOf(node) {
			if !e.Removed {
				out = append(out, *e)
			}
		}
	}
	return out
}

func (s *refSet) LiveMatch(p tuplespace.Template) (Entry, bool) {
	for _, e := range s.Live() {
		if p.Matches(e.Tuple) {
			return e, true
		}
	}
	return Entry{}, false
}

func (s *refSet) FindLocal(node topology.Location, t tuplespace.Tuple) (Origin, bool) {
	for _, e := range s.sortedOf(node) {
		if !e.Removed && e.Tuple.Equal(t) {
			return e.Origin, true
		}
	}
	return Origin{}, false
}

// oracleLocs mixes rows, columns and signs, so that (Y, X) order differs
// from (X, Y) order and from the order of the raw bit patterns.
var oracleLocs = []topology.Location{
	topology.Loc(1, 1), topology.Loc(2, 1), topology.Loc(1, 2), topology.Loc(3, 2),
	topology.Loc(-1, 2), topology.Loc(2, -3), topology.Loc(300, 1),
}

const oracleSeqs = 9 // sequences 1..9 per origin; 0 is never a dot (origins number from 1)

func randOrigin(rng *rand.Rand) Origin {
	return Origin{Node: oracleLocs[rng.Intn(len(oracleLocs))], Seq: uint16(1 + rng.Intn(oracleSeqs))}
}

func randTuple(rng *rand.Rand) tuplespace.Tuple { return tup(int16(rng.Intn(3))) }

// store is what the ordered store and the oracle have in common.
type store interface {
	Add(Origin, tuplespace.Tuple) bool
	Tombstone(Origin) (tuplespace.Tuple, bool, bool)
	Merge([]Entry) (int, int)
	Len() int
	LiveCount() int
	Digest() []Summary
	NeedsFrom([]Summary) bool
	DeltaFor([]Summary, int) []Entry
	Live() []Entry
	LiveMatch(tuplespace.Template) (Entry, bool)
	FindLocal(topology.Location, tuplespace.Tuple) (Origin, bool)
}

// randOp draws one mutation and returns it as a function that applies it
// to a store and reports everything the store answered.
func randOp(rng *rand.Rand) func(store) [3]any {
	o, v := randOrigin(rng), randTuple(rng)
	switch k := rng.Intn(10); {
	case k < 5: // adds land in any order, so gaps open and close
		return func(s store) [3]any { return [3]any{s.Add(o, v)} }
	case k < 7: // often a bare tombstone, ahead of its add
		return func(s store) [3]any {
			prior, wasLive, changed := s.Tombstone(o)
			return [3]any{prior.Equal(v), wasLive, changed}
		}
	case k < 8:
		return func(s store) [3]any {
			_, _, changed := s.Tombstone(o)
			return [3]any{changed, s.Add(o, v)}
		}
	}
	// A delta; its entries are drawn independently, so in no order.
	batch := make([]Entry, 1+rng.Intn(6))
	for i := range batch {
		batch[i] = Entry{Origin: randOrigin(rng), Tuple: randTuple(rng)}
		if rng.Intn(3) == 0 {
			batch[i] = Entry{Origin: batch[i].Origin, Removed: true}
		}
	}
	return func(s store) [3]any {
		added, removed := s.Merge(batch)
		return [3]any{added, removed}
	}
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Origin != b[i].Origin || a[i].Removed != b[i].Removed || !a[i].Tuple.Equal(b[i].Tuple) {
			return false
		}
	}
	return true
}

// diffStores fails the test unless the two stores answer every read the
// same way, DeltaFor and NeedsFrom against each of the peer digests.
func diffStores(t *testing.T, got, want store, peers map[string][]Summary) {
	t.Helper()
	if got.Len() != want.Len() || got.LiveCount() != want.LiveCount() {
		t.Fatalf("Len/LiveCount = %d/%d, oracle %d/%d", got.Len(), got.LiveCount(), want.Len(), want.LiveCount())
	}
	if g, w := got.Digest(), want.Digest(); !slices.Equal(g, w) {
		t.Fatalf("Digest = %v, oracle %v", g, w)
	}
	if g, w := got.Live(), want.Live(); !sameEntries(g, w) {
		t.Fatalf("Live = %v, oracle %v", g, w)
	}
	for v := int16(0); v < 4; v++ { // 3 is held by no entry
		for _, p := range []tuplespace.Template{
			tuplespace.Tmpl(tuplespace.Str("k"), tuplespace.Int(v)),
			tuplespace.Tmpl(tuplespace.Str("k"), tuplespace.TypeV(tuplespace.TypeValue)),
		} {
			g, gok := got.LiveMatch(p)
			w, wok := want.LiveMatch(p)
			if gok != wok || !sameEntries([]Entry{g}, []Entry{w}) {
				t.Fatalf("LiveMatch(%v) = %v/%v, oracle %v/%v", p, g, gok, w, wok)
			}
		}
		for _, loc := range append(oracleLocs, topology.Loc(7, 7)) {
			g, gok := got.FindLocal(loc, tup(v))
			w, wok := want.FindLocal(loc, tup(v))
			if g != w || gok != wok {
				t.Fatalf("FindLocal(%v, %d) = %v/%v, oracle %v/%v", loc, v, g, gok, w, wok)
			}
		}
	}
	for name, peer := range peers {
		if g, w := got.NeedsFrom(peer), want.NeedsFrom(peer); g != w {
			t.Fatalf("NeedsFrom(%s %v) = %v, oracle %v", name, peer, g, w)
		}
		for _, limit := range []int{1, 16, 100} {
			if g, w := got.DeltaFor(peer, limit), want.DeltaFor(peer, limit); !sameEntries(g, w) {
				t.Fatalf("DeltaFor(%s %v, %d) = %v, oracle %v", name, peer, limit, g, w)
			}
		}
	}
}

// TestOrderedStoreMatchesMapOracle drives the ordered store and the map
// oracle through the same random histories and requires identical
// answers after every step, against the digests of a second random set
// in the four shapes a peer's lines can arrive in.
func TestOrderedStoreMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// Caps small enough that adds hit them and tombstones pass them.
			max := []int{0, 6, 20}[seed%3]
			var got, want store = NewSet(max), newRefSet(max)
			peer := NewSet(0)
			step := 0
			defer func() {
				if t.Failed() {
					t.Logf("after step %d", step)
				}
			}()
			for ; step < 150; step++ {
				op := randOp(rng)
				if g, w := op(got), op(want); g != w {
					t.Fatalf("op answered %v, oracle %v", g, w)
				}
				randOp(rng)(peer)

				lines := peer.Digest()
				peers := map[string][]Summary{"emitted": lines}
				shuffled := slices.Clone(lines)
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				peers["shuffled"] = shuffled
				if len(lines) > 0 {
					// The same node named twice with different claims, the
					// copy landing anywhere: the last one must win.
					dup := lines[rng.Intn(len(lines))]
					dup.AddMax = uint16(rng.Intn(oracleSeqs + 1))
					dup.RemHash ^= uint32(rng.Intn(2))
					peers["duplicated"] = slices.Insert(slices.Clone(lines), rng.Intn(len(lines)+1), dup)
					peers["truncated"] = lines[:rng.Intn(len(lines))]
				}
				diffStores(t, got, want, peers)
			}
			if max > 0 && got.Len() <= max {
				t.Errorf("%d entries never passed the cap of %d", got.Len(), max)
			}
		})
	}
}

// --- allocation pins ------------------------------------------------------

func TestReadsIntoCallerBuffersAllocateNothing(t *testing.T) {
	s, peer := censusSet(0), censusSet(censusOrigins-censusEntries).Digest()
	own := s.Digest()
	var lines [256]Summary
	var delta [16]Entry
	for name, f := range map[string]func(){
		"NeedsFrom":    func() { s.NeedsFrom(peer); s.NeedsFrom(own) },
		"AppendDigest": func() { s.AppendDigest(lines[:0]) },
		"AppendDelta":  func() { s.AppendDelta(delta[:0], peer, len(delta)); s.AppendDelta(delta[:0], own, len(delta)) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", name, n)
		}
	}
}
