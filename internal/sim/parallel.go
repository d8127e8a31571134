package sim

import (
	"sync"
	"time"
)

// Parallel is the sharded discrete-event executor. Contexts are
// partitioned into shards that run on worker goroutines inside
// barrier-synchronized time windows no wider than the lookahead window —
// the minimum delay of any cross-shard interaction (for a radio medium,
// the minimum frame delay). Within a window shards cannot influence each
// other, so they execute concurrently; cross-shard events travel through
// per-shard mailboxes merged at the barriers.
//
// Because events are ordered by (time, context key, context sequence) —
// keys and sequences that depend only on each entity's own deterministic
// history — every context observes exactly the schedule the sequential
// executor would produce for the same seed. The one visible difference is
// granularity: RunUntil evaluates its predicate at window barriers rather
// than after every event, so predicate-bounded runs may execute up to one
// window past the instant the predicate first became true. Time-bounded
// runs (Run) are exact.
//
// Construct with NewParallel. The host may only touch simulation state
// between Run calls; hooks that fire during events (traces, medium taps)
// are invoked concurrently from worker goroutines and must synchronize
// any shared state they touch.
type Parallel struct {
	tab     ctxTable
	window  time.Duration
	shards  []*shard
	shardOf func(ContextKey) int

	// The world lane: events that mutate cross-shard state. They are kept
	// out of the worker shards' queues and executed on the driver goroutine
	// at window barriers, with every shard synced exactly to the event's
	// timestamp — see ScheduleWorldAt. world is the lane's sentinel context
	// (see scheduleWorld); its shard is one no worker runs, lending the
	// lane its queue, stale-entry skipping and live count (every entry
	// carries WorldKey, so the heap orders them by (at, schedule order)).
	world     Ctx
	worldExec uint64
	worldLast time.Duration

	now time.Duration
}

// NewParallel returns a sharded executor with the given number of shards.
// window is the conservative lookahead: no cross-shard Send may have a
// delay below it, and it must be positive. shardOf assigns contexts to
// shards (values are clamped); nil assigns everything to shard 0.
func NewParallel(seed int64, shards int, window time.Duration, shardOf func(ContextKey) int) *Parallel {
	if shards < 1 {
		shards = 1
	}
	if window <= 0 {
		panic("sim: parallel executor needs a positive lookahead window")
	}
	p := &Parallel{
		tab:     newCtxTable(seed),
		window:  window,
		shards:  make([]*shard, shards),
		shardOf: shardOf,
		world:   Ctx{key: WorldKey, shard: &shard{}},
	}
	for i := range p.shards {
		p.shards[i] = &shard{idx: i, win: window}
	}
	return p
}

// Seed returns the root seed.
func (p *Parallel) Seed() int64 { return p.tab.seed }

// Shards returns the number of execution shards.
func (p *Parallel) Shards() int { return len(p.shards) }

// Now returns the current virtual time (the last barrier position).
func (p *Parallel) Now() time.Duration { return p.now }

// Context returns (creating on first use) the scheduling context for key.
func (p *Parallel) Context(key ContextKey) *Ctx {
	return p.tab.context(key, func(k ContextKey) *shard {
		si := 0
		if p.shardOf != nil {
			si = p.shardOf(k)
			if si < 0 {
				si = 0
			}
			if si >= len(p.shards) {
				si = si % len(p.shards)
			}
		}
		return p.shards[si]
	})
}

// Executed returns the number of events fired so far (world events
// included). Call it from the host between runs (worker counters are
// merged at barriers).
func (p *Parallel) Executed() uint64 {
	n := p.worldExec
	for _, sh := range p.shards {
		n += sh.executed
	}
	return n
}

// Dispatched returns the number of events popped from shard heaps (world
// events included) — Executed minus locally absorbed steps. It varies
// with the shard count: each shard's run-ahead horizon is bounded by its
// own queue and window, so more shards batch differently (the schedule
// itself stays identical).
func (p *Parallel) Dispatched() uint64 {
	n := p.worldExec
	for _, sh := range p.shards {
		n += sh.executed - sh.local
	}
	return n
}

// Pending returns the number of live queued events across all shards,
// mailboxes, and the world lane.
func (p *Parallel) Pending() int {
	n := p.world.shard.pending()
	for _, sh := range p.shards {
		n += sh.pending()
	}
	return n
}

// ScheduleWorldAt schedules a world event at absolute time at (clamped to
// the barrier clock). Call it from the host between runs or from another
// world event, never from an ordinary event: the world queue is not
// synchronized against workers.
func (p *Parallel) ScheduleWorldAt(at time.Duration, fn func()) *Event {
	return scheduleWorld(&p.world, max(at, p.now), fn)
}

// peekWorld returns the earliest live world event, discarding cancelled
// ones.
func (p *Parallel) peekWorld() *entry { return p.world.shard.peek() }

// runWorld executes every world event scheduled for exactly time at, in
// schedule order, including ones those events themselves add for at. The
// caller guarantees all shards are parked with every node event at or
// before at already executed. Every clock is synced to at first, so the
// callbacks observe — and schedule against — exactly the time the
// sequential executor would show them. Between consecutive world events
// at the same instant, node events the callback spawned for that instant
// are drained first: their context keys sort below WorldKey, so the
// sequential executor runs them before the next world event, and the
// schedules must agree.
func (p *Parallel) runWorld(at time.Duration) {
	p.settle(at)
	for {
		w := p.peekWorld()
		if w == nil || w.at != at {
			return
		}
		fn := p.world.shard.popHead().ev.fn
		p.worldLast = at
		p.worldExec++
		fn()
		if p.anyDue(at, true) {
			p.syncTo(at)
		}
	}
}

// anyDue reports whether any shard (queue or mailbox) has an event to run
// before end (inclusive when closed).
func (p *Parallel) anyDue(end time.Duration, closed bool) bool {
	for _, sh := range p.shards {
		sh.drain()
		if sh.due(end, closed) {
			return true
		}
	}
	return false
}

// syncTo drives every shard to time end inclusive, looping until no
// cross-shard arrival at or before end remains unexecuted. Afterwards the
// whole deployment sits exactly at end — the precondition for running a
// world event there.
func (p *Parallel) syncTo(end time.Duration) {
	for {
		p.runWindow(end, true)
		if !p.anyDue(end, true) {
			return
		}
	}
}

// earliest merges all mailboxes and returns the earliest pending event
// time, or false when every shard is idle.
func (p *Parallel) earliest() (time.Duration, bool) {
	var t0 time.Duration
	found := false
	for _, sh := range p.shards {
		sh.drain()
		if e := sh.peek(); e != nil && (!found || e.at < t0) {
			t0, found = e.at, true
		}
	}
	return t0, found
}

// runWindow executes one window barrier to barrier: every shard runs its
// events scheduled before end (at exactly end too when closed) on its own
// goroutine. Shards with nothing due are skipped entirely.
func (p *Parallel) runWindow(end time.Duration, closed bool) {
	var wg sync.WaitGroup
	for _, sh := range p.shards {
		sh.drain()
		if !sh.due(end, closed) {
			continue
		}
		wg.Add(1)
		//lint:gospawn this IS the executor's worker pool; workers join at the window barrier below
		go func(sh *shard) {
			defer wg.Done()
			sh.runTo(end, closed)
		}(sh)
	}
	wg.Wait()
}

// settle ends a run: the global clock lands on t and every shard clock
// agrees with it, exactly as the sequential executor leaves its single
// clock.
func (p *Parallel) settle(t time.Duration) {
	p.now = t
	for _, sh := range p.shards {
		sh.now = p.now
	}
}

// park settles a run that has nothing left to execute at or before until.
// With events still queued beyond it the clock lands on until; fully idle,
// it rests at the last executed event (node or world), as the sequential
// executor does — but never before begin, the position the run started at.
func (p *Parallel) park(begin, until time.Duration) {
	if _, ok := p.earliest(); ok || p.peekWorld() != nil {
		p.settle(until)
		return
	}
	t := max(begin, p.worldLast)
	for _, sh := range p.shards {
		t = max(t, sh.lastAt)
	}
	p.settle(t)
}

// Run executes events until the queue is empty or the virtual clock would
// pass the until mark. Events at exactly until still run. The error is
// always nil.
func (p *Parallel) Run(until time.Duration) error {
	p.runLoop(until, nil)
	return nil
}

// runLoop is the window loop behind Run and RunUntil: march
// lookahead-width windows, each anchored at the earliest pending event,
// up to until, then run one closed pass for events at exactly until
// (cross-shard arrivals at until were merged by the barrier in between).
// Windows are clipped at world-event times: the deployment is synced
// exactly to the event's timestamp, the world callback runs alone on the
// driver goroutine, and windowing resumes — which is what makes
// cross-shard world mutations replay the sequential schedule. When pred is
// non-nil it is evaluated at every barrier and ends the run once true. A
// horizon already in the past is the current instant: the clock never
// moves back.
func (p *Parallel) runLoop(until time.Duration, pred func() bool) bool {
	until = max(until, p.now)
	begin := p.now
	for {
		t0, ok := p.earliest()
		var wat time.Duration
		worldDue := false
		if w := p.peekWorld(); w != nil && w.at <= until {
			wat, worldDue = w.at, true
		}
		end := t0 + p.window
		switch {
		case !worldDue && (!ok || t0 > until):
			p.park(begin, until)
			return false
		case worldDue && (!ok || wat <= end):
			// Clip at the world event: bring every shard exactly to its
			// timestamp (node events at that instant sort before it), run
			// it with all workers parked (which settles the clock there),
			// resume windowing.
			p.syncTo(wat)
			p.runWorld(wat)
		case end < until:
			p.runWindow(end, false)
			p.now = end
		default:
			// Final stretch: everything at or before until, arrivals at
			// exactly until included.
			p.syncTo(until)
			p.park(begin, until)
			return pred != nil && pred()
		}
		if pred != nil && pred() {
			p.settle(p.now)
			return true
		}
	}
}

// RunUntil executes events until pred returns true, the queue empties, or
// the clock passes limit, reporting whether pred became true. Unlike the
// sequential executor, pred is evaluated at window barriers (from the
// calling goroutine), so the run may execute up to one lookahead window of
// events past the instant pred first became true. The error is always nil.
func (p *Parallel) RunUntil(pred func() bool, limit time.Duration) (bool, error) {
	return pred() || p.runLoop(limit, pred), nil
}

var _ Executor = (*Parallel)(nil)
