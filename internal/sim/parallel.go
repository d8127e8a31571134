package sim

import (
	"sync"
	"time"
)

// Parallel is the discrete-event executor. Every event rides one of two
// lanes: a context's own, on the shard its context is partitioned into
// (each shard has its own queue and clock), or the world lane, whose
// events run alone on the driver goroutine with every shard synced to
// their instant (see ScheduleWorldAt).
//
// One shard runs inline on the calling goroutine, with the run's horizon
// as its only window: events fire strictly in (time, context key,
// sequence) order, and a declared lookahead only lets a context's step
// chain run in place past other contexts' events (see Ctx.RunLocal).
//
// More shards run on worker goroutines inside barrier-synchronized time
// windows no wider than the lookahead window — the minimum delay of any
// cross-shard interaction (for a radio medium, the minimum frame delay).
// Within a window shards cannot influence each other, so they execute
// concurrently; cross-shard events travel through per-shard mailboxes
// merged at the barriers. Because events are ordered by keys and
// sequences that depend only on each entity's own deterministic history,
// every context observes exactly the one-shard schedule for the same seed.
// The one visible difference is granularity: RunUntil evaluates its
// predicate at window barriers rather than after every event, so
// predicate-bounded runs may execute up to one window past the instant
// the predicate first became true. Time-bounded runs (Run) are exact.
//
// Now is the clock between runs; an event reads its own context's clock
// (Ctx.Now). The host may only touch simulation state between runs; hooks
// that fire during events (traces, medium taps) are invoked concurrently
// from worker goroutines when there is more than one shard and must
// synchronize any shared state they touch.
type Parallel struct {
	seed    int64
	mu      sync.Mutex // guards ctxs
	ctxs    map[ContextKey]*Ctx
	shards  []*shard
	shardOf func(ContextKey) int

	// The world lane: events that mutate cross-shard state. They are kept
	// out of the worker shards' queues and executed on the driver goroutine
	// at window barriers, with every shard synced exactly to the event's
	// timestamp — see ScheduleWorldAt. world is the lane's sentinel
	// context: no entity owns it; it numbers the lane's events in schedule
	// order, and its shard is one no worker runs, lending the lane its
	// queue, free list, event counts and live count (every entry carries
	// WorldKey, so the queue orders them by (at, schedule order)).
	world Ctx

	now time.Duration
}

// New returns a one-shard executor with no lookahead whose randomness
// derives from seed.
func New(seed int64) *Parallel { return NewParallel(seed, 1, 0, nil) }

// NewParallel returns an executor with the given number of shards.
// window is the conservative lookahead: no cross-shard Send may have a
// delay below it. It must be positive when there is more than one shard;
// one shard accepts 0, which declares no lookahead. shardOf assigns
// contexts to shards: negative values go to shard 0, values past the last
// shard wrap modulo the shard count, and nil assigns everything to shard 0.
func NewParallel(seed int64, shards int, window time.Duration, shardOf func(ContextKey) int) *Parallel {
	shards = max(shards, 1)
	if window < 0 || (window == 0 && shards > 1) {
		panic("sim: a multi-shard executor needs a positive lookahead window")
	}
	p := &Parallel{
		seed:    seed,
		ctxs:    make(map[ContextKey]*Ctx),
		shards:  make([]*shard, shards),
		shardOf: shardOf,
		world:   Ctx{key: WorldKey, shard: &shard{}},
	}
	for i := range p.shards {
		p.shards[i] = &shard{idx: i, win: window}
	}
	return p
}

// Seed returns the root seed all randomness derives from.
func (p *Parallel) Seed() int64 { return p.seed }

// Shards returns the number of execution shards.
func (p *Parallel) Shards() int { return len(p.shards) }

// Now returns the current virtual time: the last barrier position, where
// every context clock agrees with it between runs.
func (p *Parallel) Now() time.Duration { return p.now }

// Context returns (creating on first use) the scheduling context for key,
// with its key-derived random stream. Safe for concurrent use; contexts
// should nevertheless be created during setup, not mid-run.
func (p *Parallel) Context(key ContextKey) *Ctx {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.ctxs[key]; ok {
		return c
	}
	si := 0
	if p.shardOf != nil {
		si = max(p.shardOf(key), 0) % len(p.shards)
	}
	c := &Ctx{key: key, shard: p.shards[si], rng: NewRand(p.seed, saltCtx, uint64(key))}
	p.ctxs[key] = c
	return c
}

// Executed returns the number of events fired so far, world events and
// steps run in place included (see Ctx.RunLocal) — the logical event
// count, identical at every shard count and to a run that schedules every
// step. Call it from the host between runs.
func (p *Parallel) Executed() uint64 {
	n := p.world.shard.executed
	for _, sh := range p.shards {
		n += sh.executed
	}
	return n
}

// Dispatched returns the number of events popped from shard queues (world
// events included) — Executed minus the steps run in place. The gap is
// the scheduler work the in-place step chain saved; unlike Executed it
// varies with the shard count: each shard's in-place horizon is bounded
// by its own queue and window, so more shards batch differently (the
// schedule itself stays identical).
func (p *Parallel) Dispatched() uint64 {
	n := p.world.shard.executed
	for _, sh := range p.shards {
		n += sh.executed - sh.local
	}
	return n
}

// Pending returns the number of live queued events across all shards,
// mailboxes, and the world lane: counts the kernel keeps at every push,
// pop and stop, not a walk of the queues.
func (p *Parallel) Pending() int {
	n := p.world.shard.pending()
	for _, sh := range p.shards {
		n += sh.pending()
	}
	return n
}

// ScheduleWorldAt schedules a world event: a callback that may mutate
// state shared across scheduling contexts (the radio's attachment table,
// topology geometry, the deployment's node set). World events fire at
// absolute virtual time at (clamped to now), ordered by (time, WorldKey,
// schedule order) — after every node event at the same instant — on the
// driver goroutine, with every shard synced exactly to their timestamp
// and no worker running. Call it from the host between runs or from a
// world event itself, never from a node event: the world queue is not
// synchronized against workers. Like Schedule it returns no handle: the
// event comes from the world lane's free list and goes back to it once
// the callback returns.
func (p *Parallel) ScheduleWorldAt(at time.Duration, fn func()) {
	w := &p.world
	w.shard.push(entry{at: max(at, p.now), src: WorldKey, seq: w.seq, ev: w.shard.get(w, w.seq, fn)})
	w.seq++
}

// peekWorld returns the earliest world event.
func (p *Parallel) peekWorld() *entry { return p.world.shard.peek() }

// fireWorld runs the earliest world event, due at at, with every clock
// settled there, so the callback observes — and schedules against —
// exactly the time the one-shard order shows it.
func (p *Parallel) fireWorld(at time.Duration) {
	p.settle(at)
	w := p.world.shard
	w.dispatch(w.popHead())
}

// runWorld executes every world event scheduled for exactly time at, in
// schedule order, including ones those events themselves add for at. The
// caller guarantees all shards are parked with every node event at or
// before at already executed. Between consecutive world events at the
// same instant, node events the callback spawned for that instant are
// drained first: their context keys sort below WorldKey.
func (p *Parallel) runWorld(at time.Duration) {
	for {
		w := p.peekWorld()
		if w == nil || w.at != at {
			return
		}
		p.fireWorld(at)
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
// events scheduled before end (at exactly end too when closed). One shard
// runs inline; more run on their own goroutines, and shards with nothing
// due are skipped entirely.
func (p *Parallel) runWindow(end time.Duration, closed bool) {
	if len(p.shards) == 1 {
		p.shards[0].runTo(end, closed)
		return
	}
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
// agrees with it.
func (p *Parallel) settle(t time.Duration) {
	p.now = t
	for _, sh := range p.shards {
		sh.now = p.now
	}
}

// park settles a run that has nothing left to execute at or before until.
// With events still queued beyond it the clock lands on until; fully idle,
// it rests at the last executed event (node or world) — but never before
// begin, the position the run started at.
func (p *Parallel) park(begin, until time.Duration) {
	if _, ok := p.earliest(); ok || p.peekWorld() != nil {
		p.settle(until)
		return
	}
	t := max(begin, p.world.shard.lastAt)
	for _, sh := range p.shards {
		t = max(t, sh.lastAt)
	}
	p.settle(t)
}

// Run executes events until the queue is empty or the virtual clock would
// pass until. Events at exactly until still run. A drained queue leaves
// the clock at the last executed event; otherwise it lands on until. An
// until already in the past runs the current instant only — the clock
// never moves back. Run and RunUntil are the only ways to bound a run:
// there is no stop flag, so callers that need to cancel run in slices or
// poll from the predicate. The error is always nil; bench/ and every host
// compile against the signature.
func (p *Parallel) Run(until time.Duration) error {
	p.runLoop(until, nil)
	return nil
}

// runLoop is the window loop behind Run and multi-shard RunUntil: march
// windows, each anchored at the earliest pending event, up to until, then
// run one closed pass for events at exactly until (cross-shard arrivals
// at until were merged by the barrier in between). A multi-shard window
// is the lookahead wide; one shard's window is the whole horizon.
// Windows are clipped at world-event times: the deployment is synced
// exactly to the event's timestamp, the world callback runs alone on the
// driver goroutine, and windowing resumes — which is what makes
// cross-shard world mutations replay the one-shard schedule. When pred is
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
		// A closed pass to some instant is safe only short of t0+win: a
		// send from t0 may land at exactly t0+win, after the receiver's
		// own events there would already have run. So while until is at
		// or past that, the shards march open windows.
		end := until
		windowed := len(p.shards) > 1 && t0 <= until-p.shards[0].win
		if windowed {
			end = t0 + p.shards[0].win
		}
		switch {
		case !worldDue && (!ok || t0 > until):
			p.park(begin, until)
			return false
		case worldDue && (!ok || !windowed || wat < end):
			// Clip at the world event: bring every shard exactly to its
			// timestamp (node events at that instant sort before it), run
			// it with all workers parked (which settles the clock there),
			// resume windowing.
			p.syncTo(wat)
			p.runWorld(wat)
		case windowed:
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
// the clock passes limit (clamped to now like Run's until), reporting
// whether pred became true. One shard checks pred after every event,
// world events included, and runs steps in place only at the instant of
// the event that chains them; more shards check it at window barriers
// (from the calling goroutine), so the run may execute up to one
// lookahead window of events past the instant pred first became true.
// The error is always nil.
func (p *Parallel) RunUntil(pred func() bool, limit time.Duration) (bool, error) {
	if pred() {
		return true, nil
	}
	if len(p.shards) > 1 {
		return p.runLoop(limit, pred), nil
	}
	return p.stepUntil(pred, limit), nil
}

// stepUntil is one shard's RunUntil: one event per step, the next of the
// shard's head and the world lane's (which sorts after node events at its
// instant), with pred checked after each.
func (p *Parallel) stepUntil(pred func() bool, limit time.Duration) bool {
	limit = max(limit, p.now)
	sh := p.shards[0]
	for {
		e, w := sh.peek(), p.peekWorld()
		world := w != nil && (e == nil || w.at < e.at)
		var next time.Duration
		switch {
		case world:
			next = w.at
		case e != nil:
			next = e.at
		default:
			return false // drained: the clock rests at the last event
		}
		if next > limit {
			p.settle(limit)
			return false
		}
		if world {
			p.fireWorld(next)
		} else {
			sh.limit, sh.limitClosed = next, true
			sh.dispatch(sh.popHead())
			p.now = next
		}
		if pred() {
			return true
		}
	}
}
