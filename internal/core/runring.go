package core

// runRing is the engine's run queue: a power-of-two ring buffer of agent
// records. The seed implementation was a slice advanced with
// `runQueue = runQueue[1:]`, which kept every dequeued *record reachable
// through the backing array until the next append reallocated it — an
// unbounded leak across agent generations — and made each slice rotation
// an append. The ring reuses its slots forever: steady-state enqueue,
// dequeue, and rotate are pointer moves with no allocation, and capacity
// stays bounded by the high-water mark of simultaneously runnable agents
// (itself bounded by Config.MaxAgents). The first four slots — the paper's
// default MaxAgents — live inside the ring, and so inside the Node that
// holds it by value; only a roomier node (the base station) ever moves to
// a heap buffer.
type runRing struct {
	buf   []*record // len(buf) is always a power of two; slots[:] until it outgrows them
	head  int32
	n     int32
	slots [4]*record // a power of two, like every buf
}

// Len returns the number of queued records.
func (r *runRing) Len() int { return int(r.n) }

// Head returns the queue head without removing it.
func (r *runRing) Head() *record { return r.buf[r.head] }

// Push appends rec at the tail.
func (r *runRing) Push(rec *record) {
	if int(r.n) == len(r.buf) {
		r.grow()
	}
	r.buf[r.slot(r.n)] = rec
	r.n++
}

// PopHead removes and returns the head, nilling the vacated slot so the
// ring never retains a dead record.
func (r *runRing) PopHead() *record {
	rec := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = r.slot(1)
	r.n--
	return rec
}

// Rotate moves the head to the tail (a context switch) without touching
// any other slot.
func (r *runRing) Rotate() {
	if r.n < 2 {
		return
	}
	rec := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = r.slot(1)
	r.buf[r.slot(r.n-1)] = rec
}

// Tail returns the most recently queued record.
func (r *runRing) Tail() *record {
	return r.buf[r.slot(r.n-1)]
}

// Clear empties the ring and releases every held record (node crash).
func (r *runRing) Clear() {
	for i := int32(0); i < r.n; i++ {
		r.buf[r.slot(i)] = nil
	}
	r.head, r.n = 0, 0
}

// Cap exposes the backing capacity for the leak-regression test.
func (r *runRing) Cap() int { return len(r.buf) }

// slot returns the buffer index i places past the head.
func (r *runRing) slot(i int32) int32 { return (r.head + i) & int32(len(r.buf)-1) }

func (r *runRing) grow() {
	if r.buf == nil {
		r.buf = r.slots[:]
		return
	}
	buf := make([]*record, len(r.buf)*2)
	for i := int32(0); i < r.n; i++ {
		buf[i] = r.buf[r.slot(i)]
	}
	clear(r.slots[:]) // a ring on the heap must not pin records through its old slots
	r.buf, r.head = buf, 0
}
