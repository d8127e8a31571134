package tuplespace

import (
	"errors"
	"fmt"
)

// DefaultArenaBytes is the tuple store budget: "By default, it is
// allocated 600 bytes" (§3.2, Tuple Space Manager).
const DefaultArenaBytes = 600

// ErrSpaceFull is returned by Out when the arena cannot hold the tuple.
var ErrSpaceFull = errors.New("tuplespace: arena full")

// Space is one node's local tuple space. Tuples are serialized into a
// linear arena of a fixed budget; removing a tuple shifts all following
// tuples forward, exactly as the paper describes ("the 600-bytes are
// allocated linearly. When a tuple is removed, all following tuples are
// shifted forward"). The budget is a number, not a reservation: the
// simulator's arena grows as tuples arrive, so a mote holding its three
// context tuples costs the host 64 bytes, not 600.
//
// The zero Space is not usable; construct with NewSpace or Init.
type Space struct {
	arena  []byte // serialized tuples, back to back; all of it is live
	budget int
	count  int

	// onInsert observers (the tuple space manager wires the reaction
	// registry and blocked-agent wakeups here; host-side watches come
	// and go), keyed by registration id so they can be removed.
	onInsert []insertObserver
	// onRemove observers fire after each successful Inp (the replication
	// layer tracks tombstones through this hook).
	onRemove []insertObserver
	obsSeq   int
}

// insertObserver is one registered insert hook.
type insertObserver struct {
	id int
	fn func(Tuple)
}

// NewSpace creates a space with the given arena budget; budget <= 0 uses
// DefaultArenaBytes.
func NewSpace(budget int) *Space {
	s := new(Space)
	s.Init(budget)
	return s
}

// Init makes s an empty space with the given arena budget (<= 0:
// DefaultArenaBytes) and no observers, for owners that hold a Space by
// value; it also serves to wipe one (a crashed mote's RAM). Observer ids
// keep counting across a wipe, so an unregister func handed out before it
// can never remove an observer registered after.
func (s *Space) Init(budget int) {
	if budget <= 0 {
		budget = DefaultArenaBytes
	}
	*s = Space{budget: budget, obsSeq: s.obsSeq}
}

// OnInsert registers an observer called after each successful Out, in
// registration order. The returned func unregisters it; long-lived
// spaces with transient observers (host-side watches) must call it to
// keep insertions from paying for dead observers. Unregistering from
// within an observer is not supported.
func (s *Space) OnInsert(fn func(Tuple)) (remove func()) {
	s.obsSeq++
	id := s.obsSeq
	s.onInsert = append(s.onInsert, insertObserver{id: id, fn: fn})
	return func() {
		for i, o := range s.onInsert {
			if o.id == id {
				s.onInsert = append(s.onInsert[:i], s.onInsert[i+1:]...)
				return
			}
		}
	}
}

// OnRemove registers an observer called after each successful Inp with
// the removed tuple, in registration order. The returned func
// unregisters it. Unregistering from within an observer is not
// supported.
func (s *Space) OnRemove(fn func(Tuple)) (remove func()) {
	s.obsSeq++
	id := s.obsSeq
	s.onRemove = append(s.onRemove, insertObserver{id: id, fn: fn})
	return func() {
		for i, o := range s.onRemove {
			if o.id == id {
				s.onRemove = append(s.onRemove[:i], s.onRemove[i+1:]...)
				return
			}
		}
	}
}

// UsedBytes returns the number of arena bytes holding live tuples.
func (s *Space) UsedBytes() int { return len(s.arena) }

// CapBytes returns the arena budget.
func (s *Space) CapBytes() int { return s.budget }

// TupleCount returns the number of stored tuples.
func (s *Space) TupleCount() int { return s.count }

// Out inserts a tuple. It fails if the tuple is oversized or the arena is
// full; per the paper the operation is atomic — it either fully inserts or
// does nothing.
func (s *Space) Out(t Tuple) error {
	sz := t.EncodedSize()
	if sz > MaxTupleBytes {
		return fmt.Errorf("%w (%d bytes)", ErrTupleTooBig, sz)
	}
	if len(s.arena)+sz > s.budget {
		return fmt.Errorf("%w: %d used of %d, need %d", ErrSpaceFull, len(s.arena), s.budget, sz)
	}
	s.arena = t.Marshal(s.arena)
	s.count++
	for _, o := range s.onInsert {
		o.fn(t)
	}
	return nil
}

// Rdp returns a copy of the first tuple matching the template without
// removing it. The boolean reports whether a match was found.
func (s *Space) Rdp(p Template) (Tuple, bool) {
	t, _, ok := s.find(p)
	return t, ok
}

// Inp removes and returns the first tuple matching the template.
func (s *Space) Inp(p Template) (Tuple, bool) {
	t, off, ok := s.find(p)
	if !ok {
		return Tuple{}, false
	}
	sz := t.EncodedSize()
	// Shift all following tuples forward (§3.2).
	s.arena = append(s.arena[:off], s.arena[off+sz:]...)
	s.count--
	for _, o := range s.onRemove {
		o.fn(t)
	}
	return t, true
}

// Count returns the number of tuples matching the template (the tcount
// instruction).
func (s *Space) Count(p Template) int {
	n := 0
	s.walk(func(t Tuple, _ int) bool {
		if p.Matches(t) {
			n++
		}
		return true
	})
	return n
}

// All returns copies of every stored tuple in insertion order.
func (s *Space) All() []Tuple {
	var out []Tuple
	s.walk(func(t Tuple, _ int) bool {
		out = append(out, t)
		return true
	})
	return out
}

// RemoveAll removes every tuple matching the template and returns how many
// were removed.
func (s *Space) RemoveAll(p Template) int {
	n := 0
	for {
		if _, ok := s.Inp(p); !ok {
			return n
		}
		n++
	}
}

// find scans the arena for the first match, returning the decoded tuple
// and its byte offset.
func (s *Space) find(p Template) (Tuple, int, bool) {
	var (
		found Tuple
		at    int
		ok    bool
	)
	s.walk(func(t Tuple, off int) bool {
		if p.Matches(t) {
			found, at, ok = t, off, true
			return false
		}
		return true
	})
	return found, at, ok
}

// walk decodes tuples in arena order, calling fn with each tuple and its
// offset until fn returns false. A decode failure means the arena is
// corrupt, which is a programming error; walk stops silently in that case
// (the unit tests assert it never happens).
func (s *Space) walk(fn func(t Tuple, off int) bool) {
	off := 0
	for off < len(s.arena) {
		t, n, err := UnmarshalTuple(s.arena[off:])
		if err != nil {
			return
		}
		if !fn(t, off) {
			return
		}
		off += n
	}
}
