// Package sim provides the deterministic discrete-event simulation kernel
// that stands in for the physical MICA2 testbed used by the Agilla paper.
//
// The kernel is built around three pieces:
//
//   - A Ctx (scheduling context) per simulated entity — one per mote;
//     churn and mobility ride the world lane instead. Every event carries
//     the key and a per-context sequence number of the context that
//     scheduled it, and events fire in (time, context key, sequence)
//     order. Because the tie break depends only on who scheduled what —
//     never on the global interleaving of the run — the schedule is
//     reproducible at any shard count.
//
//   - Splittable random streams: each context owns a random stream derived
//     from the root seed and its key (see Stream), so the values an entity
//     draws do not depend on what other entities drew in between. This is
//     what lets a sharded run replay the exact one-shard schedule.
//
//   - One executor, Parallel, that partitions contexts into shards. One
//     shard (New, or NewParallel with shards 1) runs inline on the
//     caller's goroutine: one queue, one clock, events strictly in key
//     order. More shards execute concurrently inside conservative time
//     windows (see parallel.go) and produce the identical per-node
//     schedule for the same seed. A run is bounded one way — by a time
//     (Run) or a predicate with a time limit (RunUntil) — and the clock
//     never moves back; hosts that must cancel run in slices, which yields
//     the same schedule as one long run.
//
// Running the same scenario with the same seed reproduces the exact same
// schedule at every shard count, which is what lets the benchmark harness
// regenerate the paper's figures reproducibly.
//
// A context acts only on its own entity; it reaches another one through
// Send, delayed by at least the lookahead window. That holds for RootKey
// too, which is a plain context whose only distinction is that its key
// sorts first: harness code that mutates other entities mid-run schedules
// a world event (Parallel.ScheduleWorldAt) instead.
//
// # Handles: who may stop what
//
// A queued event is a 32-byte queue entry — its (time, key, sequence)
// identity by value plus a pointer to the event that holds the callback —
// and there are exactly two ways to own that event:
//
//   - Nobody outside the kernel. Schedule, Post, Send and ScheduleWorldAt
//     return nothing, so their events cannot be stopped and come from, and
//     go back to, the shard's free list the moment the callback returns.
//     Recycling is safe precisely because no pointer to a pooled event
//     ever leaves this package: there is no stale handle that could stop
//     an unrelated later event.
//   - A Timer, embedded by value in the state it times (a beacon, a
//     battery check, an agent's sleep, a retransmission). Its owner binds
//     it once and may Reset and Stop it from events on the timer's own
//     context's shard, any number of times; arming allocates nothing. The
//     kernel never pools a Timer; an owner that recycles the state it is
//     embedded in moves it to another context only through Rebind, which
//     waits out its queued entries.
//
// A shard's queue is one 4-ary heap until it first holds a few thousand
// entries; then it spills into tiers (see eventQueue): a calendar of
// fixed-width buckets that entries are appended to unsorted, the current
// bucket sorted once into a run, and the heap as a side tier for entries
// that land in the current bucket after that. Whatever the tier, stopping
// or re-arming never removes anything from the middle of it: the old
// entry stays queued, stale, and is skipped when it surfaces — an entry
// is live only while its event is live and still carries the entry's
// sequence number. Pending counts live entries only, and is kept as a
// counter, not found by a walk.
//
// A step that is never queued at all needs no owner: an entity continuing
// its own step chain from a tail position asks Ctx.RunLocal whether the
// next step may run in place, inside the current dispatch, and schedules
// it only when the answer is no.
package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// ContextKey identifies a scheduling context. Keys order events that fire
// at the same instant, so they must be assigned deterministically (e.g.
// from a node's location via Key2D), never from map iteration or pointer
// values.
type ContextKey uint64

// RootKey is a context key no entity takes, for harness code that is not
// tied to any simulated entity. It is a plain context: its events sort
// before node events scheduled for the same instant, and that is all.
const RootKey ContextKey = 0

// WorldKey is the ordering identity of world events (node churn, mobility
// — see Parallel.ScheduleWorldAt). It is larger than every context key, so
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
// entities draw in — the property that makes a sharded run replay the
// one-shard schedule exactly.
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

// event is what a queue entry points at: the callback and the
// context it acts on. Two kinds of owner hold one (see the package
// comment's handle contract): the shard free list (Schedule, Post, Send
// and ScheduleWorldAt — nobody else ever sees the pointer, so it is
// recycled the moment its callback returns) and a Timer embedded by value
// in the state it times.
type event struct {
	dst *Ctx // the context the event acts on (the world lane's sentinel for world events)
	fn  func()
	// seq is the arming the event is live for: a queue entry is live only
	// while its event is live and carries this sequence number, so
	// stopping or re-arming leaves the old entry in the queue as a stale
	// one that pop skips — nothing is ever removed from the middle.
	seq uint64
	// queued counts the queue entries, live or stale, that point at the
	// event; a Timer may change context only while it is zero.
	queued uint32
	live   bool
	pooled bool // recycled through the shard free list after dispatch
}

// stop makes the event's queued entry, if it has one, stale.
func (e *event) stop() {
	if e.live {
		e.live = false
		e.dst.shard.live--
	}
}

// Timer is a re-armable event held by value in the state it times (an
// agent's sleep, a migration's retransmission, a remote operation's
// timeout, a beacon or battery check): arming it allocates nothing, and
// the queue entry points into the owner, so the wake-up touches no
// separate event object. Bind it once with Init, then Reset and Stop it
// freely from events on its context's shard. The owner must not move
// while the timer is armed; a timer whose owner was dropped while armed
// is kept alive by its queue entry and fires (or is skipped, if stopped)
// like any other.
type Timer struct{ ev event }

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

// Reset arms the timer to fire after delay d (negative: zero; a deadline
// past the largest Duration saturates there), replacing any earlier
// arming: a timer fires once, at its last deadline. It takes the ordering
// identity Schedule would — the next sequence number of its context — so
// timing something with a Timer or with Schedule yields the same
// schedule.
func (t *Timer) Reset(d time.Duration) {
	t.ev.stop()
	c := t.ev.dst
	sh := c.shard
	t.ev.seq, t.ev.live = c.seq, true
	sh.push(entry{at: sh.after(d), src: c.key, seq: c.seq, ev: &t.ev})
	c.seq++
}

// Stop disarms the timer. Stopping a timer that is not armed (never
// armed, already fired, already stopped, or never bound) is a no-op.
func (t *Timer) Stop() { t.ev.stop() }

// shard is one execution lane: a queue, a clock, and a mailbox for events
// scheduled into it from other shards. Parallel has one per worker, plus
// one that only lends its queue, free list and counts to the world lane.
type shard struct {
	idx      int
	win      time.Duration // the lookahead window; 0 only on a one-shard executor declaring none
	now      time.Duration
	lastAt   time.Duration // timestamp of the last executed event
	executed uint64
	queue    eventQueue
	live     int      // queued entries that are not stale: Pending without a walk
	free     []*event // recycled pooled events (see get/put)

	// In-place step state (see Ctx.RunLocal). limit/limitClosed is the
	// horizon the current run admits — events at or before it are known
	// to be safe to execute, because the caller is driving this shard
	// that far with no interleaving from outside. dispatching is true
	// while the shard is inside dispatch; chain counts the steps the
	// current dispatch ran in place, local all steps ever run in place
	// instead of popped from the queue.
	limit       time.Duration
	limitClosed bool
	dispatching bool
	chain       int
	local       uint64

	mu    sync.Mutex
	inbox []entry // cross-shard arrivals, merged into queue at barriers
}

// after returns the time d from the shard clock. A negative delay is
// zero, and a deadline past the largest Duration saturates there, so an
// event is never queued before the clock.
func (sh *shard) after(d time.Duration) time.Duration {
	return sh.now + min(max(d, 0), maxTime-sh.now)
}

// dueInline is how many due times a context keeps in place.
const dueInline = 3

// dueList is a multiset of due times in order: the earliest dueInline in
// place, so pushing and popping a context's first few entries touches no
// second cache line, and the rest, once there are more, in a slice.
type dueList struct {
	n    int // times in near; more is empty unless n == dueInline
	near [dueInline]time.Duration
	more []time.Duration // sorted, none before near[dueInline-1]
}

// first reports whether the list holds a time, and the earliest.
func (d *dueList) first() (time.Duration, bool) { return d.near[0], d.n > 0 }

func (d *dueList) insert(t time.Duration) {
	if d.n == dueInline {
		last := d.near[dueInline-1]
		if t >= last {
			i, _ := slices.BinarySearch(d.more, t)
			d.more = slices.Insert(d.more, i, t)
			return
		}
		d.more = slices.Insert(d.more, 0, last) // nothing in more is before it
		d.n--
	}
	i := d.n
	for ; i > 0 && d.near[i-1] > t; i-- {
		d.near[i] = d.near[i-1]
	}
	d.near[i] = t
	d.n++
}

// pop drops the earliest time. It is the only removal there is: a shard
// takes entries in time order, so the one it takes is always the earliest
// its target still has queued.
func (d *dueList) pop() {
	copy(d.near[:d.n], d.near[1:d.n])
	if len(d.more) > 0 {
		d.near[dueInline-1] = d.more[0]
		d.more = d.more[:copy(d.more, d.more[1:])]
	} else {
		d.n--
	}
}

// get pops a recycled event or allocates one, marked live for sequence
// seq. Pooling is safe because nothing outside the kernel ever holds the
// pointer: Schedule, Post, Send and ScheduleWorldAt return no handle, and
// whoever needs to stop holds a Timer, which is never pooled.
func (sh *shard) get(dst *Ctx, seq uint64, fn func()) *event {
	var e *event
	if n := len(sh.free) - 1; n >= 0 {
		e = sh.free[n]
		sh.free[n] = nil
		sh.free = sh.free[:n]
	} else {
		e = new(event)
	}
	*e = event{dst: dst, fn: fn, seq: seq, live: true, pooled: true}
	return e
}

// put recycles a pooled event after its callback returned. Cross-shard
// sends are allocated on the sender's free list and released to the
// receiver's; each list is only ever touched by its owning worker.
func (sh *shard) put(e *event) {
	*e = event{} // drop the closure and dst references for the GC
	sh.free = append(sh.free, e)
}

// push queues a live entry: into the queue, the live count, and its
// target's due list. Called only from the goroutine that owns the shard's
// queue.
func (sh *shard) push(e entry) {
	e.ev.queued++
	sh.queue.push(e)
	sh.live++
	e.ev.dst.due.insert(e.at)
}

// take removes the head entry from the queue and from its target's due
// list; the caller settles the live count (a stale head was uncounted
// when it went stale).
func (sh *shard) take() entry {
	e := sh.queue.pop()
	e.ev.dst.due.pop()
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
// ones. The pointer is into the queue: use it before the next push or
// pop. Its fast path is eventQueue.top, inlined here and in localOK.
func (sh *shard) peek() *entry {
	if e := sh.queue.top(); e != nil {
		return e
	}
	return sh.peekSlow()
}

// peekSlow is peek past the fast path: it pops stale heads, and moves the
// calendar on to its next bucket when the current one is spent.
func (sh *shard) peekSlow() *entry {
	for {
		e := sh.queue.head()
		if e == nil || !e.stale() {
			return e
		}
		sh.take()
	}
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
// place, and at must fall inside the admitted horizon — which the window
// loop clips at every world event, so no step runs past one. Ordering is
// then protected per scope:
//
//   - c's own lane is exact: the step must come strictly before c's next
//     queued event (a frame delivery, its sleep timer, ...).
//   - Other contexts influence c only through sends delayed by at least
//     the lookahead window (the same contract a multi-shard run's
//     barrier windows rest on), so c may run up to — not including —
//     head.at+win. With no lookahead declared (win 0) this degrades to
//     the strict head rule.
//
// A refused step is scheduled instead, so running it in place or through
// the queue yields the same per-context schedule either way.
func (sh *shard) localOK(c *Ctx, at time.Duration) bool {
	if !sh.dispatching || sh.chain >= maxLocalSteps {
		return false
	}
	if at > sh.limit || (!sh.limitClosed && at == sh.limit) {
		return false
	}
	if t, ok := c.due.first(); ok && at >= t {
		return false
	}
	e := sh.queue.top()
	if e == nil {
		e = sh.peekSlow()
	}
	return e == nil || at-e.at < sh.win
}

// maxLocalSteps bounds how many steps one dispatch runs in place, so a
// self-perpetuating chain against an otherwise idle queue still returns
// to the driver loop and counts as a dispatch every so often.
const maxLocalSteps = 4096

// dispatch runs one popped queue entry, together with every step its
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
	// due holds the times of every queued entry, stale ones included,
	// that acts on this context: the one due list the relaxed admission
	// rule consults (see localOK).
	due dueList
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
// context's shard. A negative delay is treated as zero, and a deadline
// past the largest Duration saturates there. Events scheduled
// for the same instant by the same context fire in scheduling order. It
// returns no handle — the event is recycled once fn returns — so what must
// be stoppable is timed with a Timer instead.
func (c *Ctx) Schedule(d time.Duration, fn func()) {
	sh := c.shard
	sh.push(entry{at: sh.after(d), src: c.key, seq: c.seq, ev: sh.get(c, c.seq, fn)})
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
// schedule is the same; only the number of queue round trips (Dispatched)
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
// the minimum frame delay. The delay is clamped as Schedule clamps it.
func (c *Ctx) Send(to *Ctx, d time.Duration, fn func()) {
	sh := c.shard
	e := entry{at: sh.after(d), src: c.key, seq: c.seq, ev: sh.get(to, c.seq, fn)}
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
