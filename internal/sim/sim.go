// Package sim provides the deterministic discrete-event simulation kernel
// that stands in for the physical MICA2 testbed used by the Agilla paper.
//
// The kernel is built around three pieces:
//
//   - A Ctx (scheduling context) per simulated entity — one per mote, plus
//     a root context for harness code. Every event carries the key and a
//     per-context sequence number of the context that scheduled it, and
//     events fire in (time, context key, sequence) order. Because the tie
//     break depends only on who scheduled what — never on the global
//     interleaving of the run — the schedule is reproducible across
//     executors.
//
//   - Splittable random streams: each context owns a random stream derived
//     from the root seed and its key (see Stream), so the values an entity
//     draws do not depend on what other entities drew in between. This is
//     what lets a sharded executor replay the exact sequential schedule.
//
//   - An Executor that runs the event queue. Sequential (the Sim type) is
//     the default: one queue, one clock, events strictly in key order.
//     Parallel partitions contexts into shards that execute concurrently
//     inside conservative time windows (see parallel.go); for the same
//     seed it produces the identical per-node schedule. A run is bounded
//     one way — by a time (Run) or a predicate with a time limit
//     (RunUntil) — and the clock never moves back; hosts that must cancel
//     run in slices, which yields the same schedule as one long run.
//
// Running the same scenario with the same seed reproduces the exact same
// schedule under either executor, which is what lets the benchmark harness
// regenerate the paper's figures reproducibly.
//
// # Handles: who may stop what
//
// A queued event is a 32-byte heap entry — its (time, key, sequence)
// identity by value plus a pointer to the Event that holds the callback —
// and there are exactly three ways to own that Event:
//
//   - Nobody outside the kernel. Schedule, Post and Send return nothing,
//     so their events cannot be cancelled and their Event comes from, and
//     goes back to, the shard's free list the moment the callback
//     returns. Recycling is safe precisely because no pointer to
//     a pooled Event ever leaves this package: there is no stale handle
//     that could stop an unrelated later event.
//   - A Timer, embedded by value in the state it times (an agent's sleep,
//     a retransmission, a stall abort). Its owner may Reset and Stop it
//     from events on the timer's own context's shard, any number of
//     times; arming allocates nothing. The kernel never pools a Timer; an
//     owner that recycles the state it is embedded in moves it to another
//     context only through Rebind, which waits out its queued entries.
//   - The caller of ScheduleWorldAt, who gets the *Event and may Cancel it
//     from the host between runs or from a world event. Never pooled.
//
// Stopping, cancelling or re-arming never removes anything from the
// middle of the heap: the old entry stays queued, stale, and is skipped
// when it surfaces — an entry is live only while its Event is live and
// still carries the entry's sequence number. Pending counts live entries
// only, and is kept as a counter, not found by a walk.
//
// A step that is never queued at all needs no owner: an entity continuing
// its own step chain from a tail position asks Ctx.RunLocal whether the
// next step may run in place, inside the current dispatch, and schedules
// it only when the answer is no.
package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ContextKey identifies a scheduling context. Keys order events that fire
// at the same instant, so they must be assigned deterministically (e.g.
// from a node's location via Key2D), never from map iteration or pointer
// values.
type ContextKey uint64

// RootKey is the key of an executor's root context, used by harness code
// that is not tied to any simulated entity. Root events sort before node
// events scheduled for the same instant.
const RootKey ContextKey = 0

// WorldKey is the ordering identity of world events (node churn, mobility
// — see Executor.ScheduleWorldAt). It is larger than every context key, so
// a world event at time t runs after all node events at t: the world
// mutates between instants, never mid-instant.
const WorldKey ContextKey = ^ContextKey(0)

// Key2D derives a context key from 2D integer coordinates (a node's
// location). Distinct coordinates yield distinct keys, and no coordinate
// collides with RootKey.
func Key2D(x, y int16) ContextKey {
	return ContextKey(uint64(uint16(x))<<16|uint64(uint16(y))) + 1
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream derives an independent deterministic random stream from the root
// seed and a salt path. Entities that draw from their own streams (per
// node, per radio link) observe the same values whatever order other
// entities draw in — the property that makes parallel execution replay the
// sequential schedule exactly.
//
// The generator is a splitmix64 counter: simulations allocate one stream
// per node and per radio link, and the default math/rand source would pay
// a 607-word seeding pass for each (a quarter of a large run's CPU time).
func Stream(seed int64, salts ...uint64) *rand.Rand {
	r := NewRand(seed, salts...)
	return rand.New(&r)
}

// Rand is the splitmix64 generator behind Stream, for owners that hold
// one stream per small record (every context has one, and the medium one
// per directed radio link) and cannot afford Stream's two heap objects
// each: eight bytes by value, constant-time to seed, 2^64 period. Float64
// and Int63n return, bit for bit, what the *rand.Rand Stream builds over
// the same salts returns; the radio tests hold them to it.
type Rand struct{ state uint64 }

// NewRand seeds a generator exactly as Stream(seed, salts...) does.
func NewRand(seed int64, salts ...uint64) Rand {
	h := splitmix64(uint64(seed))
	for _, s := range salts {
		h = splitmix64(h ^ s)
	}
	return Rand{state: h}
}

// Uint64 implements rand.Source64.
func (r *Rand) Uint64() uint64 {
	out := splitmix64(r.state) // finalize(state + golden), the helper's own increment
	r.state += 0x9e3779b97f4a7c15
	return out
}

// Int63 implements rand.Source.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Seed implements rand.Source.
func (r *Rand) Seed(seed int64) { r.state = splitmix64(uint64(seed)) }

// Float64 is rand.Rand.Float64 over this source: a value in [0, 1).
func (r *Rand) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Int63n is rand.Rand.Int63n over this source: a value in [0, n), n > 0.
func (r *Rand) Int63n(n int64) int64 {
	if n&(n-1) == 0 { // n is a power of two: mask
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// saltCtx namespaces per-context streams within the seed's stream space.
const saltCtx = 0x637478 // "ctx"

// Executor runs a discrete-event schedule. Sim (sequential) and Parallel
// implement it with identical per-node schedules for the same seed.
type Executor interface {
	// Now returns the current virtual time. Between Run calls all context
	// clocks agree with it.
	Now() time.Duration
	// Seed returns the root seed all randomness derives from.
	Seed() int64
	// Shards returns the number of execution shards (1 for sequential).
	Shards() int
	// Context returns (creating on first use) the scheduling context for
	// key. Safe for concurrent use; contexts should nevertheless be
	// created during setup, not mid-run.
	Context(key ContextKey) *Ctx
	// Run executes events until the queue is empty or the virtual clock
	// would pass until. Events at exactly until still run. A drained
	// queue leaves the clock at the last executed event; otherwise it
	// lands on until. An until already in the past runs the current
	// instant only — the clock never moves back. Run and RunUntil are the
	// only ways to bound a run: there is no stop flag, so callers that
	// need to cancel run in slices or poll from the predicate. The error
	// is always nil; bench/ and every host compile against the signature.
	Run(until time.Duration) error
	// RunUntil executes events until pred returns true, the queue
	// empties, or the clock passes limit (clamped to now like Run's
	// until), reporting whether pred became true. Sequential checks pred
	// after every event; Parallel checks at window barriers (see
	// parallel.go). The error is always nil.
	RunUntil(pred func() bool, limit time.Duration) (bool, error)
	// ScheduleWorldAt schedules a world event: a callback that may mutate
	// state shared across scheduling contexts (the radio's attachment
	// table, topology geometry, the deployment's node set) and is
	// therefore unsafe to run from an ordinary event under a sharded
	// executor. World events fire at absolute virtual time at (clamped to
	// now), ordered by (time, WorldKey, schedule order) — after every
	// node event at the same instant. The sequential executor runs them
	// in-stream; Parallel clips its windows so each world event executes
	// at a barrier with all shards synced exactly to its timestamp and no
	// worker running, which makes the observable schedule identical under
	// both executors. Call it from the host between runs or from a world
	// event itself, never from a node event.
	ScheduleWorldAt(at time.Duration, fn func()) *Event
	// Executed returns the number of events that have fired so far, steps
	// run in place included (see Ctx.RunLocal) — the logical event count,
	// identical across executors and to a run that schedules every step.
	Executed() uint64
	// Dispatched returns the number of events actually popped from the
	// heap: Executed minus the steps run in place inside an earlier
	// dispatch. The gap is the scheduler work the in-place step chain
	// saved; unlike Executed it legitimately varies with shard count.
	Dispatched() uint64
	// Pending returns the number of live queued events.
	Pending() int
}

// Event is what a queued heap entry points at: the callback and the
// context it acts on. Three kinds of owner hold one (see the package
// comment's handle contract): the shard free list (Schedule, Post and Send
// — nobody else ever sees the pointer, so it is recycled the moment its
// callback returns), a Timer embedded by value in the state it times, and
// the caller of ScheduleWorldAt.
type Event struct {
	dst *Ctx // the context the event acts on (the world lane's sentinel for world events)
	fn  func()
	// seq is the arming the event is live for: a heap entry is live only
	// while its event is live and carries this sequence number, so
	// stopping or re-arming leaves the old entry in the heap as a stale
	// one that pop skips — nothing is ever removed from the middle.
	seq uint64
	// queued counts the heap entries, live or stale, that point at the
	// event; a Timer may change context only while it is zero.
	queued uint32
	live   bool
	pooled bool // recycled through the shard free list after dispatch
}

// Cancel prevents a world event from firing. Cancelling an event that
// already fired or was already cancelled is a no-op. Call it from where
// ScheduleWorldAt may be called: the host between runs, or a world event.
func (e *Event) Cancel() {
	if e != nil {
		e.stop()
	}
}

// stop makes the event's queued entry, if it has one, stale.
func (e *Event) stop() {
	if e.live {
		e.live = false
		e.dst.shard.live--
	}
}

// Timer is a re-armable event held by value in the state it times (an
// agent's sleep, a migration's retransmission, a remote operation's
// timeout): arming it allocates nothing, and the heap entry points into
// the owner, so the wake-up touches no separate event object. Bind it once
// with Init, then Reset and Stop it freely from events on its context's
// shard. The owner must not move while the timer is armed; a timer whose
// owner was dropped while armed is kept alive by its heap entry and fires
// (or is skipped, if stopped) like any other.
type Timer struct{ ev Event }

// Init binds the timer to the context whose clock and ordering identity
// it schedules with, and to its callback. Call it once, before Reset.
func (t *Timer) Init(c *Ctx, fn func()) { t.ev.dst, t.ev.fn = c, fn }

// Bound reports whether Init has been called, for owners that bind the
// callback on first use.
func (t *Timer) Bound() bool { return t.ev.fn != nil }

// Rebind moves a stopped timer to context c, keeping its callback, for an
// owner recycled from one context to another (a pooled protocol record).
// It reports true when the timer is already on c or was moved, and false,
// changing nothing, while an entry of the timer is still queued: a stale
// entry's due-list slot belongs to the old context, and a sequence number
// drawn from c could make it look live again. The same context is always
// safe, since its sequence numbers only grow.
func (t *Timer) Rebind(c *Ctx) bool {
	if t.ev.dst == c {
		return true
	}
	if t.ev.queued > 0 {
		return false
	}
	t.ev.dst = c
	return true
}

// Reset arms the timer to fire after delay d (negative: zero), replacing
// any earlier arming: a timer fires once, at its last deadline. It takes
// the ordering identity Schedule would — the next sequence number of its
// context — so timing something with a Timer or with Schedule yields the
// same schedule.
func (t *Timer) Reset(d time.Duration) {
	t.ev.stop()
	if d < 0 {
		d = 0
	}
	c := t.ev.dst
	sh := c.shard
	t.ev.seq, t.ev.live = c.seq, true
	sh.push(entry{at: sh.now + d, src: c.key, seq: c.seq, ev: &t.ev})
	c.seq++
}

// Stop disarms the timer. Stopping a timer that is not armed (never
// armed, already fired, already stopped, or never bound) is a no-op.
func (t *Timer) Stop() { t.ev.stop() }

// entry is one heap slot: the (time, context key, sequence) ordering
// identity by value, so a comparison dereferences nothing, and the event
// to run.
type entry struct {
	at  time.Duration
	src ContextKey
	seq uint64
	ev  *Event
}

// stale reports whether the entry's event was stopped, cancelled or
// re-armed after the entry was queued.
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

// eventQueue is a hand-rolled 4-ary min-heap ordered by (at, src, seq).
// Heap maintenance dominates the scheduler on large deployments, and a
// 4-way tree halves the sift depth of container/heap's binary layout
// while keeping the four children of a node on two cache lines.
type eventQueue []entry

func (q *eventQueue) push(e entry) {
	d := append(*q, e)
	*q = d
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

func (q *eventQueue) pop() entry {
	d := *q
	top := d[0]
	n := len(d) - 1
	d[0] = d[n]
	d[n] = entry{}
	d = d[:n]
	*q = d
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

// shard is one execution lane: a queue, a clock, and a mailbox for events
// scheduled into it from other shards. The sequential executor has exactly
// one; Parallel has one per worker, plus one that only lends its queue to
// the world lane.
type shard struct {
	idx      int
	win      time.Duration // conservative cross-shard lookahead; 0 when single-shard
	now      time.Duration
	lastAt   time.Duration // timestamp of the last executed event
	executed uint64
	queue    eventQueue
	live     int      // queued entries that are not stale: Pending without a walk
	free     []*Event // recycled pooled events (see get/put)

	// In-place step state (see Ctx.RunLocal). limit/limitClosed is the
	// horizon the current run admits — events at or before it are known
	// to be safe to execute, because the caller is driving this shard
	// that far with no interleaving from outside. dispatching is true
	// while the shard is inside dispatch; chain counts the steps the
	// current dispatch ran in place, local all steps ever run in place
	// instead of popped from the heap.
	limit       time.Duration
	limitClosed bool
	dispatching bool
	chain       int
	local       uint64

	// Due-time tracking for the relaxed admission rule (see localOK).
	// Every queued heap entry, stale ones included, registers the time it
	// acts on its target: node-context events in the target Ctx's own due
	// list, root/harness events in gdue, world events in wdue. A context
	// may then run ahead of other contexts' events — their influence needs
	// at least the lookahead window to reach it — but never past its own
	// next due event, a root event, or a world event's instant.
	gdue []time.Duration // root/harness events: may touch any context
	wdue []time.Duration // world events

	mu    sync.Mutex
	inbox []entry // cross-shard arrivals, merged into queue at barriers
}

// insertDue adds t to a sorted due list; removeDue drops one entry equal
// to t. Both are amortized allocation-free: the slices keep their
// backing capacity and per-context event counts are small.
func insertDue(s *[]time.Duration, t time.Duration) {
	d := *s
	lo, hi := 0, len(d)
	for lo < hi {
		mid := (lo + hi) / 2
		if d[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	d = append(d, 0)
	copy(d[lo+1:], d[lo:])
	d[lo] = t
	*s = d
}

func removeDue(s *[]time.Duration, t time.Duration) {
	d := *s
	lo, hi := 0, len(d)
	for lo < hi {
		mid := (lo + hi) / 2
		if d[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d) && d[lo] == t {
		copy(d[lo:], d[lo+1:])
		*s = d[:len(d)-1]
	}
}

// get pops a recycled Event or allocates one, marked live for sequence
// seq. Pooling is safe because nothing outside the kernel ever holds the
// pointer: Schedule, Post and Send return no handle, and whoever needs to
// cancel holds a Timer or a world event, neither of which is pooled.
func (sh *shard) get(dst *Ctx, seq uint64, fn func()) *Event {
	var e *Event
	if n := len(sh.free) - 1; n >= 0 {
		e = sh.free[n]
		sh.free[n] = nil
		sh.free = sh.free[:n]
	} else {
		e = new(Event)
	}
	*e = Event{dst: dst, fn: fn, seq: seq, live: true, pooled: true}
	return e
}

// put recycles a pooled event after its callback returned. Cross-shard
// sends are allocated on the sender's free list and released to the
// receiver's; each list is only ever touched by its owning worker.
func (sh *shard) put(e *Event) {
	*e = Event{} // drop the closure and dst references for the GC
	sh.free = append(sh.free, e)
}

// push queues a live entry: into the heap, the live count, and its
// target's due list. Called only from the goroutine that owns the shard's
// queue.
func (sh *shard) push(e entry) {
	e.ev.queued++
	sh.queue.push(e)
	sh.live++
	insertDue(sh.dueOf(&e), e.at)
}

// dueOf returns the due list an entry's action time is registered in.
func (sh *shard) dueOf(e *entry) *[]time.Duration {
	switch {
	case e.src == WorldKey:
		return &sh.wdue
	case e.ev.dst.key == RootKey:
		return &sh.gdue
	default:
		return &e.ev.dst.due
	}
}

// take removes the head entry from the heap and from its target's due
// list; the caller settles the live count (a stale head was uncounted
// when it went stale).
func (sh *shard) take() entry {
	e := sh.queue.pop()
	removeDue(sh.dueOf(&e), e.at)
	e.ev.queued--
	return e
}

// drain merges the inbox into the shard's queue. Called only while no worker
// is executing the shard.
func (sh *shard) drain() {
	sh.mu.Lock()
	in := sh.inbox
	sh.inbox = nil
	sh.mu.Unlock()
	for _, e := range in {
		sh.push(e)
	}
}

// peek returns the next live entry without removing it, discarding stale
// ones. The pointer is into the heap: use it before the next push or pop.
func (sh *shard) peek() *entry {
	for len(sh.queue) > 0 {
		if e := &sh.queue[0]; !e.stale() {
			return e
		}
		sh.take()
	}
	return nil
}

// popHead removes and returns the head entry, which peek just found live.
// The entry is out of its target's due list before it runs, so the
// target's own in-place steps are not blocked by the event currently
// dispatching, and its event is no longer live, so a timer's callback may
// re-arm it.
func (sh *shard) popHead() entry {
	e := sh.take()
	sh.live--
	e.ev.live = false
	return e
}

// due reports whether the shard has an event to run before end (inclusive
// when closed).
func (sh *shard) due(end time.Duration, closed bool) bool {
	e := sh.peek()
	if e == nil {
		return false
	}
	if closed {
		return e.at <= end
	}
	return e.at < end
}

// localOK reports whether a step of context c at time at may run in place
// inside the current dispatch without observable reordering. The shard
// must be mid-dispatch, with fewer than maxLocalSteps steps already run in
// place, and at must fall inside the admitted horizon. Ordering is then
// protected per scope:
//
//   - c's own lane is exact: the step must come strictly before c's next
//     queued heap event (a frame delivery, its sleep timer, ...).
//   - Root/harness events may touch any context directly, and they sort
//     before node events at the same instant; never run past one.
//   - World events mutate shared state but sort after every node event
//     at their instant; steps up to and including that instant are safe.
//   - Other contexts influence c only through sends delayed by at least
//     the lookahead window (the same contract the parallel executor's
//     barrier windows rest on), so c may run up to — not including —
//     head.at+win. With no lookahead declared (win 0) this degrades to
//     the strict head rule.
//
// A refused step is scheduled instead, so running it in place or through
// the heap yields the same per-context schedule either way.
func (sh *shard) localOK(c *Ctx, at time.Duration) bool {
	if !sh.dispatching || sh.chain >= maxLocalSteps {
		return false
	}
	if at > sh.limit || (!sh.limitClosed && at == sh.limit) {
		return false
	}
	if len(c.due) > 0 && at >= c.due[0] {
		return false
	}
	if len(sh.gdue) > 0 && at >= sh.gdue[0] {
		return false
	}
	if len(sh.wdue) > 0 && at > sh.wdue[0] {
		return false
	}
	e := sh.peek()
	return e == nil || at < e.at+sh.win
}

// maxLocalSteps bounds how many steps one dispatch runs in place, so a
// self-perpetuating chain against an otherwise idle queue still returns
// to the driver loop, where RunUntilIdle checks its event budget.
const maxLocalSteps = 4096

// dispatch runs one popped heap entry, together with every step its
// callback chains in place (see Ctx.RunLocal).
func (sh *shard) dispatch(e entry) {
	sh.dispatching, sh.chain = true, 0
	sh.now = e.at
	sh.lastAt = e.at
	sh.executed++
	e.ev.fn()
	sh.dispatching = false
	if e.ev.pooled {
		sh.put(e.ev)
	}
}

// runTo executes events scheduled before end — at exactly end too when
// closed — advancing the shard clock event by event and leaving it at the
// last executed event. The whole span up to end is admitted as the
// horizon steps may run in place up to.
func (sh *shard) runTo(end time.Duration, closed bool) {
	sh.limit, sh.limitClosed = end, closed
	for {
		e := sh.peek()
		if e == nil || e.at > end || (!closed && e.at == end) {
			return
		}
		sh.dispatch(sh.popHead())
	}
}

// pending counts live queued events plus inbox arrivals.
func (sh *shard) pending() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.live + len(sh.inbox)
}

// Ctx is one entity's scheduling context: its clock view, its event
// ordering identity, and its private random stream. All methods must be
// called either from events running on the context's own shard or from
// the host while the executor is paused.
type Ctx struct {
	key   ContextKey
	shard *shard
	seq   uint64
	rng   Rand
	due   []time.Duration // sorted times of this context's queued heap events
}

// Key returns the context's key.
func (c *Ctx) Key() ContextKey { return c.key }

// Shard returns the index of the shard the context executes on.
func (c *Ctx) Shard() int { return c.shard.idx }

// Now returns the context's current virtual time.
func (c *Ctx) Now() time.Duration { return c.shard.now }

// Rand returns the context's private random stream. All stochastic models
// tied to this entity must use it so runs are reproducible from the seed
// alone, independent of event interleaving across entities.
func (c *Ctx) Rand() *Rand { return &c.rng }

// Schedule arranges for fn to run after delay d of virtual time on this
// context's shard. A negative delay is treated as zero. Events scheduled
// for the same instant by the same context fire in scheduling order. It
// returns no handle — the event is recycled once fn returns — so what must
// be stoppable is timed with a Timer instead.
func (c *Ctx) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	sh := c.shard
	sh.push(entry{at: sh.now + d, src: c.key, seq: c.seq, ev: sh.get(c, c.seq, fn)})
	c.seq++
}

// Post schedules fn to run at the current instant, after all events this
// context already queued for this instant. It models posting a TinyOS
// task.
func (c *Ctx) Post(fn func()) { c.Schedule(0, fn) }

// RunLocal lets an entity run the next step of its own chain in place.
// When an event of this context at time at (not before Now) could fire
// right now without observable reordering — inside the dispatch's
// horizon, with no queued event due first that could affect or observe
// it (see shard.localOK) — RunLocal advances the clock to at, counts the
// step exactly as a fired event, and reports true: the caller then runs
// the step inline. Otherwise it changes nothing and reports false, and
// the caller schedules the step instead. Either way the observable
// schedule is the same; only the number of heap round trips (Dispatched)
// differs. Call it only from a tail position: nothing the current event
// still does may follow the step.
func (c *Ctx) RunLocal(at time.Duration) bool {
	sh := c.shard
	if !sh.localOK(c, at) {
		return false
	}
	sh.now = at
	sh.lastAt = at
	sh.executed++
	sh.local++
	sh.chain++
	return true
}

// Send schedules fn to run after delay d on the receiver context's shard,
// ordered by this (sending) context's identity. It is the one cross-shard
// scheduling primitive: the radio uses it to deliver frames. When the
// receiver lives on a different shard, d must be at least the executor's
// lookahead window — which holds by construction, because the window is
// the minimum frame delay.
func (c *Ctx) Send(to *Ctx, d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	sh := c.shard
	e := entry{at: sh.now + d, src: c.key, seq: c.seq, ev: sh.get(to, c.seq, fn)}
	c.seq++
	if to.shard == sh {
		sh.push(e)
		return
	}
	if d < sh.win {
		panic(fmt.Sprintf("sim: cross-shard send with delay %v below the %v lookahead window", d, sh.win))
	}
	to.shard.mu.Lock()
	to.shard.inbox = append(to.shard.inbox, e)
	to.shard.mu.Unlock()
}

// ctxTable is the executor-shared context registry: one mutex-guarded
// map from key to Ctx, creating contexts on first use with their
// key-derived stream. Both executors embed it so context creation can
// never diverge between them.
type ctxTable struct {
	seed int64
	mu   sync.Mutex
	ctxs map[ContextKey]*Ctx
}

func newCtxTable(seed int64) ctxTable {
	return ctxTable{seed: seed, ctxs: make(map[ContextKey]*Ctx)}
}

// context returns (creating on first use) the context for key, placed on
// the shard shardFor picks.
func (t *ctxTable) context(key ContextKey, shardFor func(ContextKey) *shard) *Ctx {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.ctxs[key]; ok {
		return c
	}
	c := &Ctx{key: key, shard: shardFor(key), rng: NewRand(t.seed, saltCtx, uint64(key))}
	t.ctxs[key] = c
	return c
}

// Sim is the sequential discrete-event executor: one queue, one clock,
// events strictly in (time, context key, sequence) order. It doubles as a
// plain scheduling surface for tests and simple consumers: Schedule, Post,
// and Rand operate on its root context.
//
// The zero value is not usable; construct with New. Not safe for
// concurrent use.
type Sim struct {
	tab   ctxTable
	sh    *shard
	root  *Ctx
	world Ctx // the world lane's sentinel context (see scheduleWorld)
}

// New returns a sequential executor whose randomness derives from seed.
func New(seed int64) *Sim {
	sh := &shard{}
	s := &Sim{tab: newCtxTable(seed), sh: sh, world: Ctx{key: WorldKey, shard: sh}}
	s.root = s.Context(RootKey)
	return s
}

// Seed returns the root seed.
func (s *Sim) Seed() int64 { return s.tab.seed }

// Shards returns 1: the sequential executor is a single lane.
func (s *Sim) Shards() int { return 1 }

// Context returns (creating on first use) the scheduling context for key.
func (s *Sim) Context(key ContextKey) *Ctx {
	return s.tab.context(key, func(ContextKey) *shard { return s.sh })
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.sh.now }

// Rand returns the root context's random stream. Entity-tied randomness
// should use the entity context's Rand instead.
func (s *Sim) Rand() *Rand { return &s.root.rng }

// Executed returns the number of events that have fired so far, steps
// run in place included.
func (s *Sim) Executed() uint64 { return s.sh.executed }

// Dispatched returns the number of events popped from the heap —
// Executed minus the steps run in place inside an earlier dispatch.
func (s *Sim) Dispatched() uint64 { return s.sh.executed - s.sh.local }

// Schedule arranges for fn to run after delay d on the root context.
func (s *Sim) Schedule(d time.Duration, fn func()) { s.root.Schedule(d, fn) }

// Post schedules fn at the current instant on the root context.
func (s *Sim) Post(fn func()) { s.root.Post(fn) }

// ScheduleWorldAt schedules a world event at absolute time at (clamped to
// now). In the sequential executor a world event is an ordinary queue
// entry whose WorldKey identity sorts it after every node event at the
// same instant.
func (s *Sim) ScheduleWorldAt(at time.Duration, fn func()) *Event {
	return scheduleWorld(&s.world, max(at, s.sh.now), fn)
}

// scheduleWorld queues a world event at absolute time at on the lane whose
// sentinel context is w: a context no entity owns, keyed WorldKey, that
// numbers the lane's events in schedule order and names the shard whose
// queue holds them — the sequential executor's one shard, or a shard of
// Parallel's own that no worker runs. The event is the caller's handle
// and is never pooled.
func scheduleWorld(w *Ctx, at time.Duration, fn func()) *Event {
	e := &Event{dst: w, fn: fn, seq: w.seq, live: true}
	w.shard.push(entry{at: at, src: WorldKey, seq: w.seq, ev: e})
	w.seq++
	return e
}

// SetLookahead declares the minimum cross-context influence delay: no
// event of one context schedules onto, or otherwise affects, another
// context in less than d of virtual time (for a radio deployment, the
// minimum frame delay — exactly the window NewParallel takes). Declaring
// it lets a context run its step chain in place (Ctx.RunLocal) past other
// contexts' queued events inside that horizon, which is what turns
// instruction runs into single dispatches on multi-node deployments where
// lock-step schedules leave no strictly-earlier gap. Zero (the default)
// disables the relaxation. The caller owns the contract's truth; root
// and world events are exempt from it and never run ahead of.
func (s *Sim) SetLookahead(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.sh.win = d
}

// maxHorizon is the run horizon for runs bounded only by queue
// exhaustion: run steps in place as far ahead as the queue itself allows.
const maxHorizon = time.Duration(1<<63 - 1)

// Step fires the next pending event, advancing the clock to its timestamp.
// It returns false when the queue is empty. Single-stepping admits
// in-place steps at the same instant only, so its granularity stays close
// to one event per call.
func (s *Sim) Step() bool {
	if s.sh.peek() == nil {
		return false
	}
	e := s.sh.popHead()
	s.sh.limit, s.sh.limitClosed = e.at, true
	s.sh.dispatch(e)
	return true
}

// Run executes events until the queue is empty or the virtual clock would
// pass the until mark (clamped to now: the clock never moves back). Events
// at exactly until still run. The error is always nil.
func (s *Sim) Run(until time.Duration) error {
	until = max(until, s.sh.now)
	s.sh.runTo(until, true)
	if s.sh.peek() != nil {
		s.sh.now = until
	}
	return nil
}

// RunUntilIdle executes events until none remain. It is the drain helper
// of tests that hold the concrete Sim, not part of Executor. maxEvents
// guards against runaway schedules (self-perpetuating beacons); 0 means
// no limit.
func (s *Sim) RunUntilIdle(maxEvents uint64) error {
	s.sh.limit, s.sh.limitClosed = maxHorizon, true
	start := s.sh.executed
	for s.sh.peek() != nil {
		s.sh.dispatch(s.sh.popHead())
		if maxEvents > 0 && s.sh.executed-start >= maxEvents {
			return fmt.Errorf("sim: exceeded %d events without going idle", maxEvents)
		}
	}
	return nil
}

// RunUntil executes events until pred returns true (checked after every
// event), the queue empties, or the clock passes limit (clamped to now).
// It reports whether pred became true. The error is always nil.
func (s *Sim) RunUntil(pred func() bool, limit time.Duration) (bool, error) {
	limit = max(limit, s.sh.now)
	for !pred() {
		e := s.sh.peek()
		if e == nil {
			return false, nil
		}
		if e.at > limit {
			s.sh.now = limit
			return false, nil
		}
		s.Step()
	}
	return true, nil
}

// Pending returns the number of live queued events: a count the kernel
// keeps at every push, pop, stop and cancel, not a walk of the heap.
func (s *Sim) Pending() int { return s.sh.pending() }

var _ Executor = (*Sim)(nil)
