package tuplespace

import (
	"errors"
	"fmt"
	"math"
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
	budget int32
	count  int32

	// onInsert runs after each successful Out and onRemove after each
	// removal, with the removed tuple; the owning node sets both (see
	// SetHooks). The tuple space manager wakes blocked agents and fires
	// reactions on insertion; the replication layer tracks tombstones on
	// removal.
	onInsert func(Tuple)
	onRemove func(Tuple)
}

// NewSpace creates a space with the given arena budget; budget <= 0 uses
// DefaultArenaBytes.
func NewSpace(budget int) *Space {
	s := new(Space)
	s.Init(budget)
	return s
}

// Init makes s an empty space with the given arena budget (<= 0:
// DefaultArenaBytes) and no hooks, for owners that hold a Space by
// value; it also serves to wipe one (a crashed mote's RAM).
func (s *Space) Init(budget int) {
	if budget <= 0 {
		budget = DefaultArenaBytes
	}
	*s = Space{budget: int32(min(budget, math.MaxInt32))}
}

// SetHooks sets the space's one insert hook and one remove hook; either
// may be nil. A nil remove hook lets Drop skip copying out the tuple it
// removes.
func (s *Space) SetHooks(onInsert, onRemove func(Tuple)) {
	s.onInsert, s.onRemove = onInsert, onRemove
}

// UsedBytes returns the number of arena bytes holding live tuples.
func (s *Space) UsedBytes() int { return len(s.arena) }

// CapBytes returns the arena budget.
func (s *Space) CapBytes() int { return int(s.budget) }

// TupleCount returns the number of stored tuples.
func (s *Space) TupleCount() int { return int(s.count) }

// Out inserts a tuple. It fails if the tuple is oversized or the arena is
// full; per the paper the operation is atomic — it either fully inserts or
// does nothing.
func (s *Space) Out(t Tuple) error {
	sz := t.EncodedSize()
	if sz > MaxTupleBytes {
		return fmt.Errorf("%w (%d bytes)", ErrTupleTooBig, sz)
	}
	if len(s.arena)+sz > int(s.budget) {
		return fmt.Errorf("%w: %d used of %d, need %d", ErrSpaceFull, len(s.arena), s.budget, sz)
	}
	s.arena = t.Marshal(s.arena)
	s.count++
	if s.onInsert != nil {
		s.onInsert(t)
	}
	return nil
}

// Lookup finds the first tuple matching the template, decodes its fields
// onto dst and, when remove is set, removes it from the space. The
// boolean reports whether a match was found. The returned tuple's fields
// are dst's storage: a dst with room for MaxTupleBytes fields makes the
// lookup allocation-free, and the tuple is the caller's only until it
// reuses dst. The vm.Host tuple instructions look up through here.
func (s *Space) Lookup(p Template, remove bool, dst []Value) (Tuple, bool) {
	off, sz, ok := s.find(p, 0)
	if !ok {
		return Tuple{}, false
	}
	var t Tuple
	t.Fields, _, _ = AppendFields(dst, s.arena[off:]) // find decoded this tuple already
	if remove {
		s.cut(off, sz, t)
	}
	return t, true
}

// Rdp returns a copy of the first tuple matching the template without
// removing it. The boolean reports whether a match was found. The copy
// is the caller's to keep.
func (s *Space) Rdp(p Template) (Tuple, bool) {
	off, _, ok := s.find(p, 0)
	if !ok {
		return Tuple{}, false
	}
	return s.at(off), true
}

// Inp removes and returns the first tuple matching the template, a copy
// the caller may keep.
func (s *Space) Inp(p Template) (Tuple, bool) {
	off, sz, ok := s.find(p, 0)
	if !ok {
		return Tuple{}, false
	}
	t := s.at(off)
	s.cut(off, sz, t)
	return t, true
}

// Drop removes the first tuple matching the template, as Inp does, for
// callers that do not want it back: the tuple is copied out only when a
// remove hook needs it.
func (s *Space) Drop(p Template) bool {
	off, sz, ok := s.find(p, 0)
	if !ok {
		return false
	}
	var t Tuple
	if s.onRemove != nil {
		t = s.at(off)
	}
	s.cut(off, sz, t)
	return true
}

// Count returns the number of tuples matching the template (the tcount
// instruction).
func (s *Space) Count(p Template) int {
	n := 0
	for off, sz, ok := s.find(p, 0); ok; off, sz, ok = s.find(p, off+sz) {
		n++
	}
	return n
}

// All returns copies of every stored tuple in insertion order.
func (s *Space) All() []Tuple {
	var out []Tuple
	for off := 0; off < len(s.arena); {
		t, n, err := UnmarshalTuple(s.arena[off:])
		if err != nil {
			break // a corrupt arena is a programming error the unit tests rule out
		}
		out = append(out, t)
		off += n
	}
	return out
}

// RemoveAll removes every tuple matching the template and returns how many
// were removed.
func (s *Space) RemoveAll(p Template) int {
	n := 0
	for s.Drop(p) {
		n++
	}
	return n
}

// find returns the arena offset and encoded size of the first tuple at or
// after offset from that matches p. Each stored tuple is decoded into a
// scratch array on the stack for the match, so a lookup allocates nothing;
// only the tuple a caller takes away is copied out (see at). A decode
// failure means the arena is corrupt, which is a programming error; find
// then reports no match (the unit tests assert it never happens).
func (s *Space) find(p Template, from int) (off, size int, ok bool) {
	var scratch [MaxTupleBytes]Value
	for off = from; off < len(s.arena); off += size {
		var fields []Value
		var err error
		if fields, size, err = AppendFields(scratch[:0], s.arena[off:]); err != nil {
			return 0, 0, false
		}
		if p.Matches(Tuple{Fields: fields}) {
			return off, size, true
		}
	}
	return 0, 0, false
}

// at decodes a fresh copy of the tuple stored at arena offset off, which
// find returned.
func (s *Space) at(off int) Tuple {
	t, _, _ := UnmarshalTuple(s.arena[off:])
	return t
}

// cut removes the size bytes at off that encode t, shifting all following
// tuples forward (§3.2), and tells the remove hook.
func (s *Space) cut(off, size int, t Tuple) {
	s.arena = append(s.arena[:off], s.arena[off+size:]...)
	s.count--
	if s.onRemove != nil {
		s.onRemove(t)
	}
}
