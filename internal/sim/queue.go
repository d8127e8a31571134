package sim

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// maxTime is the latest instant an event can be queued for: a deadline
// past it saturates here (see shard.after), so it sorts after every
// finite time and fires only in a run to maxTime itself.
const maxTime = time.Duration(math.MaxInt64)

// entry is one queue slot: the (time, context key, sequence) ordering
// identity by value, so a comparison dereferences nothing, and the event
// to run.
type entry struct {
	at  time.Duration
	src ContextKey
	seq uint64
	ev  *event
}

// stale reports whether the entry's event was stopped or re-armed after
// the entry was queued.
func (e *entry) stale() bool { return !e.ev.live || e.ev.seq != e.seq }

func (e *entry) before(o *entry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.src != o.src {
		return e.src < o.src
	}
	return e.seq < o.seq
}

// cmpEntry is before as a three-way comparison, for the standard
// library's sorts.
func cmpEntry(a, b entry) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	if a.src != b.src {
		return cmp.Compare(a.src, b.src)
	}
	return cmp.Compare(a.seq, b.seq)
}

// Geometry of a spilled queue's calendar.
const (
	// spillAt is the queue length at which a shard's heap turns into a
	// calendar. Below it the whole queue is one 4-ary heap and no ring is
	// allocated: a small deployment keeps the heap's cache footprint and
	// its inlined head read.
	spillAt = 8192
	// bucketShift sets a bucket's width: 2^23 ns, about 8.4 ms of
	// virtual time.
	bucketShift = 23
	// ringSlots is the number of buckets on the ring, which reaches about
	// 8.6 s past the current bucket; entries beyond it wait in the
	// overflow heap.
	ringSlots = 1024
	// chunkLen is the number of entries in one pooled chunk of bucket
	// storage: a chunk with its header fills a 4 KiB size class.
	chunkLen = 127
)

// bucketOf numbers the calendar bucket holding time at. Bucket numbers
// stay far below the int64 range even for a saturated time, so the ring
// arithmetic below never overflows.
func bucketOf(at time.Duration) int64 { return int64(at) >> bucketShift }

// eventQueue is a shard's queue of entries, ordered by (at, src, seq).
// It starts as one hand-rolled 4-ary min-heap — a 4-way tree halves the
// sift depth of container/heap's binary layout while keeping the four
// children of a node on two cache lines — and stays one until it first
// holds spillAt entries. Then it spills into tiers. Entries after the
// current bucket go onto a calendar, appended unsorted. A bucket that
// becomes current is sorted once into run and popped front to back. An
// entry pushed into the current bucket or before it goes into the heap,
// now a small side tier; the head is the lesser of the run's and the
// heap's. A large field schedules most of its events in same-instant
// clusters (every mote's wake at one instant), and sorting such a bucket
// once is far cheaper than sifting each of its entries through a heap
// that does not fit the caches.
type eventQueue struct {
	heap quadHeap // the whole queue until it spills, then the side tier
	run  []entry  // the current bucket, sorted; run[pos:] is still queued
	pos  int
	cal  *calendar // nil until the queue spills
}

// calendar holds the entries after the current bucket: those within
// ringSlots buckets in the ring, appended to chunk lists, the rest in an
// overflow heap that the ring takes them back from as it comes within
// reach.
type calendar struct {
	cur    int64 // the current bucket's number; every entry here is in a later one
	ring   [ringSlots]bucket
	inRing int
	over   quadHeap
	free   *chunk // recycled chunks
}

// bucket is one ring slot: a list of chunks, filled front to back.
type bucket struct{ head, tail *chunk }

type chunk struct {
	next *chunk
	n    int
	e    [chunkLen]entry
}

// push queues e.
func (q *eventQueue) push(e entry) {
	if c := q.cal; c != nil {
		if b := bucketOf(e.at); b > c.cur {
			c.add(e, b)
			return
		}
	} else if len(q.heap) >= spillAt {
		q.spill()
		q.push(e)
		return
	}
	q.heap.push(e)
}

// top returns the side heap's head when it is live and the run is spent
// — always the case for a live head before the queue spills — and nil
// otherwise, when head must decide. Small enough to inline.
func (q *eventQueue) top() *entry {
	if q.pos == len(q.run) && len(q.heap) > 0 {
		if e := &q.heap[0]; !e.stale() {
			return e
		}
	}
	return nil
}

// head returns the earliest entry, stale or not, or nil when the queue is
// empty. The pointer is into the queue: use it before the next push or pop.
func (q *eventQueue) head() *entry {
	if q.pos == len(q.run) {
		if len(q.heap) > 0 {
			return &q.heap[0]
		}
		if q.cal == nil || !q.advance() {
			return nil
		}
	}
	r := &q.run[q.pos]
	if len(q.heap) > 0 && q.heap[0].before(r) {
		return &q.heap[0]
	}
	return r
}

// pop removes and returns the earliest entry; head must have found one.
func (q *eventQueue) pop() entry {
	if q.pos < len(q.run) && (len(q.heap) == 0 || q.run[q.pos].before(&q.heap[0])) {
		e := q.run[q.pos]
		q.run[q.pos] = entry{} // no dangling event for the GC
		q.pos++
		return e
	}
	return q.heap.pop()
}

// spill moves every entry onto a calendar whose current bucket is the
// one before the heap minimum's, so the next head promotes the earliest
// bucket into the run and the side heap starts empty.
func (q *eventQueue) spill() {
	c := &calendar{cur: bucketOf(q.heap[0].at) - 1}
	for _, e := range q.heap {
		c.add(e, bucketOf(e.at))
	}
	q.heap, q.cal = nil, c
}

// advance makes the calendar's next non-empty bucket current: its
// entries, and any overflow entries that fall into it, become the sorted
// run. It reports false when the calendar is empty. Called only once the
// run and the side heap are both exhausted.
func (q *eventQueue) advance() bool {
	c := q.cal
	var next int64
	switch {
	case c.inRing > 0:
		next = c.cur + 1
		for c.ring[next&(ringSlots-1)].head == nil {
			next++
		}
	case len(c.over) > 0:
		// Only once the ring is empty: every overflow entry lies past
		// the ring's reach, which reclaim restores at every advance.
		next = bucketOf(c.over[0].at)
	default:
		return false
	}
	c.cur = next
	run := q.run[:0]
	s := &c.ring[next&(ringSlots-1)]
	for k := s.head; k != nil; {
		run = append(run, k.e[:k.n]...)
		c.inRing -= k.n
		nk := k.next
		c.release(k)
		k = nk
	}
	*s = bucket{}
	run = c.reclaim(run)
	q.run, q.pos = run, 0
	q.sortRun()
	return true
}

// sortRun puts a promoted bucket in (at, src, seq) order. A bucket is
// appended to in push order, so one that holds a single same-instant
// cluster, pushed in key order as its predecessor fired, needs no sort.
func (q *eventQueue) sortRun() {
	if !slices.IsSortedFunc(q.run, cmpEntry) {
		slices.SortFunc(q.run, cmpEntry)
	}
}

// add appends e, due in bucket b (after the current one), to its ring
// slot, or pushes it onto the overflow heap when b is past the ring's
// reach.
func (c *calendar) add(e entry, b int64) {
	if b-c.cur > ringSlots {
		c.over.push(e)
		return
	}
	s := &c.ring[b&(ringSlots-1)]
	t := s.tail
	if t == nil || t.n == chunkLen {
		k := c.chunk()
		if t == nil {
			s.head = k
		} else {
			t.next = k
		}
		s.tail, t = k, k
	}
	t.e[t.n] = e
	t.n++
	c.inRing++
}

// reclaim moves the overflow entries the ring now reaches, earliest
// first: those in the current bucket onto run, which it returns, and
// later ones into their ring slots.
func (c *calendar) reclaim(run []entry) []entry {
	for len(c.over) > 0 {
		switch b := bucketOf(c.over[0].at); {
		case b == c.cur:
			run = append(run, c.over.pop())
		case b-c.cur <= ringSlots:
			c.add(c.over.pop(), b)
		default:
			return run
		}
	}
	return run
}

// chunk returns an empty chunk from the free list, or a new one.
func (c *calendar) chunk() *chunk {
	k := c.free
	if k == nil {
		return new(chunk)
	}
	c.free, k.next = k.next, nil
	return k
}

// release returns a drained chunk to the free list.
func (c *calendar) release(k *chunk) {
	clear(k.e[:k.n]) // no dangling events for the GC
	k.n = 0
	k.next, c.free = c.free, k
}

// quadHeap is a hand-rolled 4-ary min-heap of entries.
type quadHeap []entry

func (h *quadHeap) push(e entry) {
	d := append(*h, e)
	*h = d
	i := len(d) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !d[i].before(&d[p]) {
			break
		}
		d[i], d[p] = d[p], d[i]
		i = p
	}
}

func (h *quadHeap) pop() entry {
	d := *h
	top := d[0]
	n := len(d) - 1
	d[0] = d[n]
	d[n] = entry{}
	d = d[:n]
	*h = d
	// Sift the promoted tail element down to its place.
	i := 0
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if d[j].before(&d[m]) {
				m = j
			}
		}
		if !d[m].before(&d[i]) {
			break
		}
		d[i], d[m] = d[m], d[i]
		i = m
	}
	return top
}
