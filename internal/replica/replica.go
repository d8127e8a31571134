// Package replica implements the replicated tuple space layer: each
// node's space doubles as a grow/remove two-phase set whose elements are
// origin-stamped tuples, synchronized between radio neighbors by
// anti-entropy gossip (digests of per-origin version summaries, followed
// by deltas carrying the entries a peer lacks). The model follows the
// "message sets as a CRDT / tuple space" construction: adds and
// tombstones both grow monotonically, merge is idempotent and
// commutative, and a tombstone permanently wins over its add — a removed
// tuple can never resurrect, whatever order deltas arrive in.
//
// The package is pure data structure and policy: it owns no timers and
// sends no frames. internal/core drives it from each node's scheduling
// context, which is what keeps gossip deterministic under both the
// sequential and the sharded executor.
package replica

import (
	"slices"

	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

// Origin names a replicated entry: the node that inserted the tuple and
// that node's replication sequence number at the time. The pair is the
// dedup key — gossip may deliver an entry many times over many paths, and
// merge applies it once.
type Origin struct {
	Node topology.Location
	Seq  uint16
}

// Entry is one element of the two-phase set: an origin-stamped tuple,
// possibly tombstoned. A tombstoned entry keeps only its origin (the
// tuple bytes are dropped); bare tombstones — a remove learned before its
// add — are legal and block the add forever.
type Entry struct {
	Origin  Origin
	Tuple   tuplespace.Tuple
	Removed bool
}

// Summary is one digest line: the receiver's knowledge of one origin
// node, compressed to the contiguous frontier of sequences it holds
// (live or tombstoned — the highest seq with no gap below it) and an
// order-independent hash of the tombstones it holds for that origin.
// Two sets agree on an origin exactly when both figures match. The
// frontier, not a raw maximum, is what makes convergence sound: a
// tombstone that arrives before its add leaves a gap the add branch can
// never fill, and a raw max would advertise right past it.
type Summary struct {
	Node    topology.Location
	AddMax  uint16
	RemHash uint32
}

// originRec is the per-origin-node record behind Digest: what this set
// knows about one origin, kept current by Add and Tombstone.
type originRec struct {
	loc topology.Location
	// frontier is the origin's contiguous knowledge frontier: the largest
	// seq such that every seq from 1 up to it is present, live or
	// tombstoned. Origins number their adds from 1, and deltas deliver
	// adds in ascending order with only suffix truncation, so per-origin
	// knowledge is always a prefix plus possibly scattered tombstones
	// above it (which the removal hash advertises separately). It only
	// ever advances, at insert time.
	frontier uint16
	remHash  uint32 // XOR of dotHash over the origin's tombstones
	n        int32  // entries held for this origin, tombstones included
}

// Set is one node's replica store. Not safe for concurrent use; in the
// simulation each set is confined to its node's scheduling context.
//
// Both slices are kept sorted by Add and Tombstone — entries by (origin
// node (Y, X), sequence), origins by (Y, X), the deterministic order
// every wire-visible product uses — so every ordered question is a
// binary search or a range scan, and origins[i]'s entries are the n
// consecutive ones after those of origins[:i].
type Set struct {
	max     int // live+tombstoned entry budget for adds (tombstones always admitted)
	live    int
	entries []Entry
	origins []originRec
}

// NewSet creates a store that accepts up to max entries via Add
// (tombstones are always recorded, so the remove half of the set can
// never be starved by the cap). max <= 0 means unbounded.
func NewSet(max int) *Set { return &Set{max: max} }

// Len returns the number of entries, tombstones included.
func (s *Set) Len() int { return len(s.entries) }

// LiveCount returns the number of live (not tombstoned) entries.
func (s *Set) LiveCount() int { return s.live }

// locKey maps a location to an integer that orders as (Y, X).
func locKey(l topology.Location) uint32 {
	return uint32(uint16(l.Y)^0x8000)<<16 | uint32(uint16(l.X)^0x8000)
}

// find returns the index of o in entries, or the index it would be
// inserted at. (Both searches are written out: through
// slices.BinarySearchFunc and a comparison closure BenchmarkMerge takes
// twice as long and churn-repl runs 10 % slower.)
func (s *Set) find(o Origin) (int, bool) {
	key := locKey(o.Node)
	lo, hi := 0, len(s.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m := s.entries[mid].Origin
		if k := locKey(m.Node); k < key || k == key && m.Seq < o.Seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.entries) && s.entries[lo].Origin == o
}

// findOrigin returns the index of loc's record in origins, or the index
// it would be inserted at.
func (s *Set) findOrigin(loc topology.Location) (int, bool) {
	key := locKey(loc)
	lo, hi := 0, len(s.origins)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if locKey(s.origins[mid].loc) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.origins) && s.origins[lo].loc == loc
}

// insert places e at index i of entries (where find said it belongs),
// advances its origin's frontier over every sequence the insertion made
// contiguous, and returns the origin's record.
func (s *Set) insert(i int, e Entry) *originRec {
	if s.entries == nil && s.max > 0 {
		s.entries = make([]Entry, 0, s.max)
	}
	s.entries = slices.Insert(s.entries, i, e)
	j, ok := s.findOrigin(e.Origin.Node)
	if !ok {
		s.origins = slices.Insert(s.origins, j, originRec{loc: e.Origin.Node})
	}
	r := &s.origins[j]
	r.n++
	for ; i < len(s.entries) && s.entries[i].Origin == (Origin{Node: r.loc, Seq: r.frontier + 1}); i++ {
		r.frontier++
	}
	return r
}

// Add inserts a live entry. It reports whether the set changed: false if
// the origin is already known (live or tombstoned — a tombstone blocks
// its add forever) or the budget is exhausted.
func (s *Set) Add(o Origin, t tuplespace.Tuple) bool {
	i, ok := s.find(o)
	if ok || s.max > 0 && len(s.entries) >= s.max {
		return false
	}
	s.insert(i, Entry{Origin: o, Tuple: t})
	s.live++
	return true
}

// Tombstone marks the origin removed. It returns the tuple the entry held
// if it was live, and reports whether the call changed state. An unknown
// origin grows a bare tombstone (remove-before-add), which advances the
// origin's frontier only if it is the next contiguous sequence — above a
// gap the summary must keep advertising the gap, so the surrounding adds
// still flow in.
func (s *Set) Tombstone(o Origin) (prior tuplespace.Tuple, wasLive, changed bool) {
	var r *originRec
	if i, ok := s.find(o); ok {
		e := &s.entries[i]
		if e.Removed {
			return tuplespace.Tuple{}, false, false
		}
		prior, wasLive = e.Tuple, true
		e.Removed = true
		e.Tuple = tuplespace.Tuple{}
		s.live--
		j, _ := s.findOrigin(o.Node)
		r = &s.origins[j]
	} else {
		r = s.insert(i, Entry{Origin: o, Removed: true})
	}
	r.remHash ^= dotHash(o)
	return prior, wasLive, true
}

// Merge applies a batch of remote entries (a decoded delta), returning
// how many adds and how many tombstones changed the set. Merge is
// idempotent and order-insensitive at the set level; callers that need
// per-entry effects drive Add/Tombstone directly instead.
func (s *Set) Merge(entries []Entry) (added, removed int) {
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

// Digest summarizes the set for anti-entropy: one line per known origin
// node, sorted by location. An empty set digests to an empty, non-nil
// slice — which is still worth sending, since it invites peers to stream
// everything back (the recovery path).
func (s *Set) Digest() []Summary {
	return s.AppendDigest(make([]Summary, 0, len(s.origins)))
}

// AppendDigest appends the digest lines to dst and returns the extended
// slice, which shares dst's backing array whenever its capacity
// suffices: one pass over the origin records, no allocation into a large
// enough buffer.
func (s *Set) AppendDigest(dst []Summary) []Summary {
	for i := range s.origins {
		r := &s.origins[i]
		dst = append(dst, Summary{Node: r.loc, AddMax: r.frontier, RemHash: r.remHash})
	}
	return dst
}

// NeedsFrom reports whether the peer's digest advertises state this set
// lacks — if so, sending our own digest back will pull it.
func (s *Set) NeedsFrom(peer []Summary) bool {
	for _, l := range peer {
		var r originRec // zero when this set has never heard of the node
		if i, ok := s.findOrigin(l.Node); ok {
			r = s.origins[i]
		}
		if l.AddMax > r.frontier || l.RemHash != r.remHash {
			return true
		}
	}
	return false
}

// DeltaFor computes the entries the peer (as described by its digest)
// lacks, at most limit of them, in (origin node, sequence) order. Adds
// above the peer's AddMax travel with their tuples; tombstones travel as
// bare origins whenever the remove hashes disagree. Because entries are
// emitted in ascending sequence order and truncation drops only a
// suffix, the receiver's per-origin knowledge always stays a prefix —
// the next digest round resumes exactly where the cap cut off.
func (s *Set) DeltaFor(peer []Summary, limit int) []Entry {
	return s.AppendDelta(nil, peer, limit)
}

// AppendDelta is DeltaFor appending to dst: it returns the extended
// slice, which shares dst's backing array whenever its capacity
// suffices. The entries' tuples share their field slices with the
// store's, as DeltaFor's and Live's do.
//
// The work is one merge-walk of the origin records against the peer's
// lines when those arrive sorted and free of duplicates, as Digest emits
// them; for any other input each origin looks its line up by scanning,
// the last line naming a node winning.
func (s *Set) AppendDelta(dst []Entry, peer []Summary, limit int) []Entry {
	sorted := true
	for i := 1; i < len(peer) && sorted; i++ {
		sorted = locKey(peer[i-1].Node) < locKey(peer[i].Node)
	}
	limit += len(dst)
	at, j := 0, 0
	for i := range s.origins {
		r := &s.origins[i]
		run := s.entries[at : at+int(r.n)]
		at += len(run)
		var p Summary // zero when the peer has never heard of the node
		if sorted {
			for j < len(peer) && locKey(peer[j].Node) < locKey(r.loc) {
				j++
			}
			if j < len(peer) && peer[j].Node == r.loc {
				p = peer[j]
			}
		} else {
			for k := len(peer) - 1; k >= 0; k-- {
				if peer[k].Node == r.loc {
					p = peer[k]
					break
				}
			}
		}
		wantRems := r.remHash != p.RemHash
		if r.frontier <= p.AddMax && !wantRems {
			continue
		}
		for k := range run {
			if len(dst) >= limit {
				return dst
			}
			e := &run[k]
			switch {
			case e.Removed && wantRems:
				dst = append(dst, Entry{Origin: e.Origin, Removed: true})
			case !e.Removed && e.Origin.Seq > p.AddMax:
				dst = append(dst, *e)
			}
		}
	}
	return dst
}

// Live returns the live entries in (origin node, sequence) order.
func (s *Set) Live() []Entry {
	out := make([]Entry, 0, s.live)
	for i := range s.entries {
		if !s.entries[i].Removed {
			out = append(out, s.entries[i])
		}
	}
	return out
}

// LiveMatch returns the first live entry (in Live order) whose tuple
// matches the template — the responder-side fallback behind remote
// rrdp/rinp when the local arena has no match.
func (s *Set) LiveMatch(p tuplespace.Template) (Entry, bool) {
	for i := range s.entries {
		if e := &s.entries[i]; !e.Removed && p.Matches(e.Tuple) {
			return *e, true
		}
	}
	return Entry{}, false
}

// FindLocal returns the lowest-sequence live entry originated at node
// whose tuple equals t — how a local Inp finds the entry to tombstone.
func (s *Set) FindLocal(node topology.Location, t tuplespace.Tuple) (Origin, bool) {
	i, _ := s.find(Origin{Node: node})
	for ; i < len(s.entries) && s.entries[i].Origin.Node == node; i++ {
		if e := &s.entries[i]; !e.Removed && e.Tuple.Equal(t) {
			return e.Origin, true
		}
	}
	return Origin{}, false
}

// fnv32a constants.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnv32a(h uint32, bs ...byte) uint32 {
	for _, b := range bs {
		h ^= uint32(b)
		h *= fnvPrime32
	}
	return h
}

// dotHash hashes one origin for the removal summary. XOR-combining
// per-dot hashes makes the summary order-independent and incrementally
// maintainable: equal hashes mean equal tombstone sets (up to hash
// collision, which only delays convergence until the next mutation).
func dotHash(o Origin) uint32 {
	return fnv32a(fnvOffset32,
		byte(o.Node.X), byte(uint16(o.Node.X)>>8),
		byte(o.Node.Y), byte(uint16(o.Node.Y)>>8),
		byte(o.Seq), byte(o.Seq>>8))
}
