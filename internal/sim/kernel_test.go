package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// The kernel order oracle. One seeded script drives both the real kernel
// and a model that keeps every queued event in a plain binary heap
// (container/heap) over (at, src, seq) and skips dead ones as they
// surface. What an event does when it fires — schedule, continue its own
// step chain in place or through the queue, send to another context,
// re-arm or stop a timer; a world event also reaches into any context and
// schedules other world events, at its own instant or later — is a pure
// function of the event's id, so the two runs can only agree if the
// kernel fires exactly the oracle's events in exactly the oracle's order:
// a stopped timer never, a re-armed one once at its last deadline,
// nothing from a recycled event.
//
// Two scripts run under it. The random one drives six contexts; besides
// its near timers every context owns a far one, armed 1–3 s out like a
// beacon or gossip period and re-armed and stopped by near events, so the
// oracle also covers entries queued far past the near window. The
// calendar one drives enough contexts to spill every shard's queue into
// its calendar: all their wake timers fire at one instant, the way a
// field's sensing loops do, and re-arm for the next; near timers are
// re-armed and stopped across bucket boundaries, and far timers are
// armed past the ring's reach, into the overflow heap.

const (
	oracleCtxs   = 6
	oracleTimers = 2 // near timers per context; index oracleTimers is the far one
	farTimer     = oracleTimers
	oracleWindow = 5 * time.Millisecond
	oracleDepth  = 7
	worldCtx     = -1
)

// sched is what a firing event may do, implemented by the kernel kernelRig
// and by the model.
type sched interface {
	schedule(ctx int, d time.Duration, id uint64)
	stepLocal(ctx int, d time.Duration, id uint64) // a tail: nothing follows it
	send(from, to int, d time.Duration, id uint64)
	timerReset(ctx, k int, d time.Duration, id uint64)
	timerStop(ctx, k int)
	worldAt(after time.Duration, id uint64)
}

// script is what the oracle runs: how many contexts, the host's roots,
// what event id does when it fires on ctx (worldCtx for a world event),
// and the run slices the kernel is driven in.
type script struct {
	ctxs  int
	roots func(s sched)
	act   func(s sched, seed int64, ctx int, id uint64)
	slice time.Duration
}

// randomScript is the six-context script of random children.
var randomScript = script{
	ctxs:  oracleCtxs,
	roots: roots,
	act: func(s sched, seed int64, ctx int, id uint64) {
		act(s, seed, ctx, id, depthOf(id))
	},
	slice: 9 * time.Millisecond,
}

// act performs the children of event id firing on ctx (worldCtx for a
// world event) at generation depth. Child ids are derived from the
// parent's, so they do not depend on the order events fire in.
func act(s sched, seed int64, ctx int, id uint64, depth int) {
	if depth >= oracleDepth {
		return
	}
	r := rand.New(rand.NewSource(seed ^ int64(id*0x9e3779b97f4a7c15)))
	ms := func(n int) time.Duration { return time.Duration(r.Intn(n)) * time.Millisecond }
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		child := id*16 + uint64(i) + 1
		if ctx == worldCtx {
			c := r.Intn(oracleCtxs)
			switch r.Intn(6) {
			case 0:
				s.schedule(c, ms(3), child) // including the world event's own instant
			case 1:
				s.timerReset(c, r.Intn(oracleTimers), ms(20), child)
			case 2:
				s.timerStop(c, r.Intn(oracleTimers))
			case 3, 4:
				s.worldAt(ms(30), child)
			case 5:
				s.worldAt(0, child) // behind its parent, at the same instant
			}
			continue
		}
		switch r.Intn(10) {
		case 0, 1:
			s.schedule(ctx, ms(12), child)
		case 2:
			s.stepLocal(ctx, ms(4), child)
			return
		case 3, 4:
			s.send(ctx, r.Intn(oracleCtxs), oracleWindow+ms(10), child)
		case 5, 6:
			s.timerReset(ctx, r.Intn(oracleTimers), ms(15), child)
		case 7:
			s.timerStop(ctx, r.Intn(oracleTimers))
		case 8:
			s.timerReset(ctx, farTimer, time.Second+ms(2000), child)
		case 9:
			s.timerStop(ctx, farTimer)
		}
	}
}

func oracleKey(ctx int) ContextKey { return Key2D(int16(ctx+1), 1) }

// depthOf recovers an event's generation from its id (ids are base-16
// paths from the roots 1..15).
func depthOf(id uint64) int {
	d := 0
	for ; id >= 16; id = (id - 1) / 16 {
		d++
	}
	return d
}

// --- the calendar script ------------------------------------------------

const (
	calCtxs   = 3000 // with their stale entries, past spillAt on each of two shards
	calPeriod = 500 * time.Millisecond
	calRounds = 20
	calReach  = ringSlots << bucketShift // the ring's span: later times overflow
)

// An id's low four bits are its kind; a wake's next four bits hold
// nothing, the others' hold their generation.
const (
	kindWake = iota
	kindLeaf
	kindFar
)

// calendarScript fires every context's wake timer (timer 0) at the same
// instant every calPeriod for calRounds rounds. Each wake also does one or
// two of: schedule or send a leaf across a few buckets, re-arm or stop
// the near timer (timer 1), re-arm the far timer 1–3 s out or past the
// ring's reach, or stop it. A leaf may step once more in place; a far
// timer re-arms itself for a few generations.
var calendarScript = script{
	ctxs: calCtxs,
	roots: func(s sched) {
		for c := 0; c < calCtxs; c++ {
			s.timerReset(c, 0, calPeriod, wakeID(c, 0))
			if c%7 == 0 {
				s.timerReset(c, farTimer, calReach+time.Duration(c)*time.Millisecond, uint64(c)<<8|kindFar)
			}
		}
	},
	act:   calendarAct,
	slice: 97 * time.Millisecond, // each check walks every tier of thousands of entries
}

func wakeID(ctx, round int) uint64 { return (uint64(round)<<16|uint64(ctx))<<8 | kindWake }

func calendarAct(s sched, seed int64, ctx int, id uint64) {
	r := NewRand(seed, id)
	ms := func(n int64) time.Duration { return time.Duration(r.Int63n(n)) * time.Millisecond }
	gen := id >> 4 & 15
	child := func(kind uint64) uint64 { return r.Uint64()<<8 | (gen+1)<<4 | kind }
	switch id & 15 {
	case kindWake:
		if round := int(id >> 24); round+1 < calRounds {
			s.timerReset(ctx, 0, calPeriod, wakeID(ctx, round+1))
		}
		for i, n := 0, 1+r.Int63n(2); i < int(n); i++ {
			switch r.Int63n(8) {
			case 0, 1:
				s.schedule(ctx, ms(40), child(kindLeaf))
			case 2:
				s.send(ctx, int(r.Int63n(calCtxs)), oracleWindow+ms(20), child(kindLeaf))
			case 3:
				s.timerReset(ctx, 1, 5*time.Millisecond+ms(60), child(kindLeaf))
			case 4:
				s.timerStop(ctx, 1)
			case 5:
				s.timerReset(ctx, farTimer, time.Second+ms(2000), child(kindFar))
			case 6:
				s.timerReset(ctx, farTimer, calReach+ms(1500), child(kindFar))
			case 7:
				s.timerStop(ctx, farTimer)
			}
		}
	case kindLeaf:
		if gen < 3 && r.Int63n(4) == 0 {
			s.stepLocal(ctx, ms(3), child(kindLeaf))
		}
	case kindFar:
		if gen < 3 && r.Int63n(2) == 0 {
			s.timerReset(ctx, farTimer, time.Second+ms(8000), child(kindFar))
		}
	}
}

// --- the model ----------------------------------------------------------

type modelEvent struct {
	at   time.Duration
	src  ContextKey
	seq  uint64
	dst  int
	id   uint64
	dead *bool // shared with whoever may stop it
	far  bool  // an arming of its context's far timer
}

// modelQueue is container/heap's min-heap over (at, src, seq).
type modelQueue []modelEvent

func (q modelQueue) Len() int { return len(q) }
func (q modelQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}
func (q modelQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *modelQueue) Push(x any)   { *q = append(*q, x.(modelEvent)) }
func (q *modelQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

type model struct {
	seed     int64
	sc       script
	now      time.Duration
	seq      []uint64
	worldSeq uint64
	queue    modelQueue
	timers   [][oracleTimers + 1]*bool // the live arming's dead flag
	fired    [][]uint64                // per target context; last: the world lane
	order    []uint64

	farFired, farStopped int // far timers that fired, and live ones stopped
}

func newModel(seed int64, sc script) *model {
	return &model{
		seed: seed, sc: sc,
		seq:    make([]uint64, sc.ctxs),
		timers: make([][oracleTimers + 1]*bool, sc.ctxs),
		fired:  make([][]uint64, sc.ctxs+1),
	}
}

func (m *model) push(ctx, dst int, d time.Duration, id uint64, far bool) *bool {
	dead := new(bool)
	heap.Push(&m.queue, modelEvent{at: m.now + d, src: oracleKey(ctx), seq: m.seq[ctx], dst: dst, id: id, dead: dead, far: far})
	m.seq[ctx]++
	return dead
}

func (m *model) schedule(ctx int, d time.Duration, id uint64)  { m.push(ctx, ctx, d, id, false) }
func (m *model) stepLocal(ctx int, d time.Duration, id uint64) { m.push(ctx, ctx, d, id, false) }
func (m *model) send(from, to int, d time.Duration, id uint64) { m.push(from, to, d, id, false) }

func (m *model) timerReset(ctx, k int, d time.Duration, id uint64) {
	if dead := m.timers[ctx][k]; dead != nil {
		*dead = true // re-arming replaces the live arming, not a stop
	}
	m.timers[ctx][k] = m.push(ctx, ctx, d, id, k == farTimer)
}

func (m *model) timerStop(ctx, k int) {
	if dead := m.timers[ctx][k]; dead != nil {
		if k == farTimer && !*dead {
			m.farStopped++
		}
		*dead = true
	}
}

func (m *model) worldAt(after time.Duration, id uint64) {
	dead := new(bool)
	heap.Push(&m.queue, modelEvent{at: m.now + after, src: WorldKey, seq: m.worldSeq, dst: worldCtx, id: id, dead: dead})
	m.worldSeq++
}

func (m *model) run() {
	for m.queue.Len() > 0 {
		e := heap.Pop(&m.queue).(modelEvent)
		if *e.dead {
			continue
		}
		*e.dead = true // fired: a later stop of this arming is a no-op
		m.now = e.at
		lane := e.dst
		if lane == worldCtx {
			lane = m.sc.ctxs
		}
		m.fired[lane] = append(m.fired[lane], e.id)
		m.order = append(m.order, e.id)
		if e.far {
			m.farFired++
		}
		m.sc.act(m, m.seed, e.dst, e.id)
	}
}

// --- the kernel kernelRig -------------------------------------------------

type kernelRig struct {
	seed   int64
	sc     script
	ex     *Parallel
	ctxs   []*Ctx
	timers [][oracleTimers + 1]Timer  // allocated once: a bound Timer must not move
	arming [][oracleTimers + 1]uint64 // id of each timer's current arming
	fired  [][]uint64
	order  *[]uint64 // global firing order; nil where only each context's is defined
}

func newKernelRig(seed int64, sc script, ex *Parallel, global bool) *kernelRig {
	h := &kernelRig{
		seed: seed, sc: sc, ex: ex,
		ctxs:   make([]*Ctx, sc.ctxs),
		timers: make([][oracleTimers + 1]Timer, sc.ctxs),
		arming: make([][oracleTimers + 1]uint64, sc.ctxs),
		fired:  make([][]uint64, sc.ctxs+1),
	}
	if global {
		h.order = new([]uint64)
	}
	for i := range h.ctxs {
		h.ctxs[i] = ex.Context(oracleKey(i))
	}
	for c := range h.timers {
		for k := range h.timers[c] {
			c, k := c, k
			h.timers[c][k].Init(h.ctxs[c], func() { h.fire(c, h.arming[c][k]) })
		}
	}
	return h
}

func (h *kernelRig) fire(ctx int, id uint64) {
	lane := ctx
	if ctx == worldCtx {
		lane = h.sc.ctxs
	}
	h.fired[lane] = append(h.fired[lane], id)
	if h.order != nil {
		*h.order = append(*h.order, id)
	}
	h.sc.act(h, h.seed, ctx, id)
}

func (h *kernelRig) schedule(ctx int, d time.Duration, id uint64) {
	h.ctxs[ctx].Schedule(d, func() { h.fire(ctx, id) })
}

// stepLocal runs the child in place when the kernel admits it and
// schedules it otherwise: to the model, both are one more queued event.
func (h *kernelRig) stepLocal(ctx int, d time.Duration, id uint64) {
	stepLocal(h.ctxs[ctx], d, func() { h.fire(ctx, id) })
}

// stepLocal continues c's step chain with fn after d the way the engine
// does from its tail: in place when RunLocal admits the step's time,
// through the heap otherwise.
func stepLocal(c *Ctx, d time.Duration, fn func()) {
	if c.RunLocal(c.Now() + d) {
		fn()
		return
	}
	c.Schedule(d, fn)
}

func (h *kernelRig) send(from, to int, d time.Duration, id uint64) {
	h.ctxs[from].Send(h.ctxs[to], d, func() { h.fire(to, id) })
}

func (h *kernelRig) timerReset(ctx, k int, d time.Duration, id uint64) {
	h.arming[ctx][k] = id
	h.timers[ctx][k].Reset(d)
}

func (h *kernelRig) timerStop(ctx, k int) { h.timers[ctx][k].Stop() }

func (h *kernelRig) worldAt(after time.Duration, id uint64) {
	h.ex.ScheduleWorldAt(h.ex.Now()+after, func() { h.fire(worldCtx, id) })
}

// roots seeds a run from the host: a few events per context, an armed
// timer, and the first world events.
func roots(s sched) {
	id := uint64(1)
	for c := 0; c < oracleCtxs; c++ {
		s.schedule(c, time.Duration(c)*time.Millisecond, id)
		id++
	}
	s.timerReset(0, 0, 3*time.Millisecond, id)
	s.worldAt(7*time.Millisecond, id+1)
}

// brutePending counts live entries the way Pending used to: by walking
// every tier of every queue — the side heap, the rest of the current run,
// each ring bucket's chunks and the overflow heap — plus the mailboxes.
func brutePending(shards ...*shard) int {
	n := 0
	for _, sh := range shards {
		q := &sh.queue
		tiers := [][]entry{q.heap, q.run[q.pos:]}
		if c := q.cal; c != nil {
			for s := range c.ring {
				for k := c.ring[s].head; k != nil; k = k.next {
					tiers = append(tiers, k.e[:k.n])
				}
			}
			tiers = append(tiers, c.over)
		}
		for _, tier := range tiers {
			for i := range tier {
				if !tier[i].stale() {
					n++
				}
			}
		}
		n += len(sh.inbox)
	}
	return n
}

func TestKernelOrderOracle(t *testing.T) {
	// The setups keep their original names so their ids stay stable:
	// "sequential" is one shard with no lookahead (New), whose global
	// firing order is defined and checked.
	setups := []struct {
		name   string
		sc     script
		seeds  int64
		global bool
		build  func(seed int64) *Parallel
	}{
		{"sequential", randomScript, 12, true, New},
		// With a lookahead a context runs ahead of the others inside the
		// window, as it does on its own shard when there are several:
		// each context's schedule is the oracle's, the global
		// interleaving is not defined.
		{"sequential+lookahead", randomScript, 12, false, func(seed int64) *Parallel { return NewParallel(seed, 1, oracleWindow, nil) }},
		// Two shards in halves (contexts 0–2 and 3–5) and interleaved by
		// column. Every oracle key is even, so the raw key modulo 2 would
		// leave shard 1 idle and never cross a mailbox.
		{"parallel-2", randomScript, 12, false, func(seed int64) *Parallel {
			return NewParallel(seed, 2, oracleWindow, func(k ContextKey) int { return (int(uint64(k)>>16) - 1) * 2 / oracleCtxs })
		}},
		{"parallel-2/split", randomScript, 12, false, func(seed int64) *Parallel {
			return NewParallel(seed, 2, oracleWindow, byColumn(2))
		}},
		{"calendar", calendarScript, 2, true, New},
		{"calendar/parallel-2", calendarScript, 2, false, func(seed int64) *Parallel {
			return NewParallel(seed, 2, oracleWindow, byColumn(2))
		}},
	}
	for _, su := range setups {
		var inPlace uint64 // steps the setup ran in place, over every seed
		for seed := int64(1); seed <= su.seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", su.name, seed), func(t *testing.T) {
				m := newModel(seed, su.sc)
				su.sc.roots(m)
				m.run()
				if len(m.order) < 50 {
					t.Fatalf("script fired only %d events: too small to mean anything", len(m.order))
				}
				if m.farFired == 0 || m.farStopped == 0 {
					t.Fatalf("script fired %d far timers and stopped %d: the oracle must cover both", m.farFired, m.farStopped)
				}

				ex := su.build(seed)
				shards := append([]*shard{ex.world.shard}, ex.shards...)
				h := newKernelRig(seed, su.sc, ex, su.global)
				su.sc.roots(h)
				// Run in slices so the live count is checked mid-run, with
				// stale entries and (under Parallel) mailboxes in play.
				overflowed := false
				for ex.Pending() > 0 {
					if err := ex.Run(ex.Now() + su.sc.slice); err != nil {
						t.Fatal(err)
					}
					if got, want := ex.Pending(), brutePending(shards...); got != want {
						t.Fatalf("at %v: Pending() = %d, a walk of the queues finds %d live", ex.Now(), got, want)
					}
					for _, sh := range ex.shards {
						overflowed = overflowed || sh.queue.cal != nil && len(sh.queue.cal.over) > 0
					}
				}
				if su.sc.ctxs == calCtxs {
					// The script must reach what it is there for: every
					// shard spilled, a same-instant cluster sorted as one
					// bucket, and the overflow tier in use.
					for _, sh := range ex.shards {
						if sh.queue.cal == nil || cap(sh.queue.run) < calCtxs/len(ex.shards) {
							t.Fatalf("shard %d: spilled %v, largest run %d; want a calendar and a run of the whole wake cluster",
								sh.idx, sh.queue.cal != nil, cap(sh.queue.run))
						}
					}
					if !overflowed {
						t.Fatal("no entry ever waited in the overflow heap")
					}
				}
				if h.order != nil && fmt.Sprint(*h.order) != fmt.Sprint(m.order) {
					t.Fatalf("fired order differs from the oracle's:\n got %v\nwant %v", *h.order, m.order)
				}
				for lane := range m.fired {
					if fmt.Sprint(h.fired[lane]) != fmt.Sprint(m.fired[lane]) {
						t.Fatalf("lane %d fired\n got %v\nwant %v", lane, h.fired[lane], m.fired[lane])
					}
				}
				if got, want := ex.Executed(), uint64(len(m.order)); got != want {
					t.Fatalf("Executed() = %d, oracle fired %d", got, want)
				}
				for _, sh := range ex.shards {
					if sh.executed == 0 && len(ex.shards) > 1 {
						t.Fatalf("shard %d of %d executed no event: the setup never crosses a mailbox", sh.idx, len(ex.shards))
					}
				}
				inPlace += ex.Executed() - ex.Dispatched()
			})
		}
		if inPlace == 0 {
			t.Errorf("%s: no step ran in place over %d seeds — the oracle does not cover RunLocal", su.name, su.seeds)
		}
	}
}

// TestRunLocalBoundsAChain pins the runaway bound: a context that keeps
// chaining itself in place against an otherwise empty queue is refused
// after maxLocalSteps steps, so the dispatch returns to the driver loop.
// The horizon ends exactly where the third segment's last in-place step
// lands, and the chain's own loop is capped, so a missing bound fails
// the test instead of hanging it.
func TestRunLocalBoundsAChain(t *testing.T) {
	s := New(1)
	c := s.Context(Key2D(1, 1))
	var runs []int // steps run in place per dispatch
	var step func()
	step = func() {
		for n := 0; n <= 2*maxLocalSteps; n++ {
			if !c.RunLocal(c.Now() + time.Microsecond) {
				runs = append(runs, n)
				c.Schedule(time.Microsecond, step)
				return
			}
		}
		runs = append(runs, -1) // never refused: leave the queue empty
	}
	c.Schedule(0, step)
	// A segment is one dispatch plus maxLocalSteps steps, a microsecond
	// apart.
	horizon := time.Duration(3*(maxLocalSteps+1)-1) * time.Microsecond
	if err := s.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 || s.Pending() != 1 || s.Now() != horizon {
		t.Fatalf("Run(%v): %d segments, %d pending, clock at %v; steps run in place per dispatch: %v",
			horizon, len(runs), s.Pending(), s.Now(), runs)
	}
	for _, n := range runs {
		if n != maxLocalSteps {
			t.Fatalf("steps run in place per dispatch = %v, want %d each", runs, maxLocalSteps)
		}
	}
	if got, want := s.Dispatched(), uint64(len(runs)); got != want {
		t.Fatalf("Dispatched() = %d, want one per chain segment (%d)", got, want)
	}
}

// TestTimerFiresOnceAtLastDeadline pins the two timer rules by hand, apart
// from the random script.
func TestTimerFiresOnceAtLastDeadline(t *testing.T) {
	s := New(1)
	var at []time.Duration
	var tm Timer
	c := s.Context(Key2D(1, 1))
	tm.Init(c, func() { at = append(at, c.Now()) })
	tm.Reset(10 * time.Millisecond)
	tm.Reset(30 * time.Millisecond)
	tm.Reset(20 * time.Millisecond)
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d with one timer armed three times, want 1", got)
	}
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(at) != 1 || at[0] != 20*time.Millisecond {
		t.Fatalf("fired at %v, want once at 20ms", at)
	}
	// Re-armed from its own callback, then stopped: never again.
	tm.Reset(5 * time.Millisecond)
	tm.Stop()
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(at) != 1 {
		t.Fatalf("a stopped timer fired: %v", at)
	}
}

// TestTimerRebindWaitsForItsEntries pins the rule that lets an owner
// recycle a timer across contexts: Rebind refuses while the timer is
// armed and while any entry of it is queued, stale ones included, and a
// moved timer fires once, at its new deadline.
func TestTimerRebindWaitsForItsEntries(t *testing.T) {
	s := New(1)
	a, b := s.Context(Key2D(1, 1)), s.Context(Key2D(2, 1))
	var fired []time.Duration
	var tm Timer
	if tm.Bound() {
		t.Fatal("a zero timer reports bound")
	}
	tm.Init(a, func() { fired = append(fired, b.Now()) })
	if !tm.Bound() || !tm.Rebind(a) {
		t.Fatal("a bound timer cannot stay on its own context")
	}
	tm.Reset(time.Millisecond)
	if tm.Rebind(a) {
		t.Fatal("an armed timer was handed on, even on its own context")
	}
	// Leave a stale entry due at 30ms behind a live harness event at 20ms,
	// which keeps it queued: the kernel drops a stale entry as soon as it
	// reaches the head of the heap.
	tm.Reset(30 * time.Millisecond)
	tm.Stop()
	s.Context(RootKey).Schedule(20*time.Millisecond, func() {})
	if tm.Rebind(b) {
		t.Fatal("rebound with a stale entry still queued")
	}
	if err := s.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if tm.Rebind(b) {
		t.Fatal("rebound before the stale entry was popped")
	}
	if err := s.Run(25 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !tm.Rebind(b) {
		t.Fatal("an idle timer refused to move")
	}
	// The drained queue left the clock at 20ms.
	tm.Reset(5 * time.Millisecond)
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 25*time.Millisecond {
		t.Fatalf("fired at %v, want once at 25ms", fired)
	}
}

// TestKernelSteadyStateAllocatesNothing pins the two cycles the footprint
// work made allocation-free: a timer re-armed and fired, and a Send
// delivered through the pooled event.
func TestKernelSteadyStateAllocatesNothing(t *testing.T) {
	s := New(1)
	a, b := s.Context(Key2D(1, 1)), s.Context(Key2D(2, 1))
	fired := 0
	count := func() { fired++ }
	var tm Timer
	tm.Init(a, count)
	cycle := func() {
		tm.Reset(time.Millisecond)
		a.Send(b, 2*time.Millisecond, count)
		if err := s.Run(s.Now() + 3*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the heap slice, the due lists and the free list
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("timer reset→fire plus Send→deliver allocates %.1f objects per cycle, want 0", avg)
	}
	if fired != 2*202 {
		t.Fatalf("fired %d callbacks, want %d", fired, 2*202)
	}
}

// TestSpilledQueueAllocatesNothing pins the same for a queue past
// spillAt: timers on a thousand contexts re-arming themselves — a
// same-instant cluster, two beacon-like periods and a period past the
// ring's reach — cycle through the ring's chunks, the run and the overflow
// heap without allocating. Every period is a whole number of
// buckets, so after two of the longest the buckets fill exactly as they
// did before and every buffer is at its working size.
func TestSpilledQueueAllocatesNothing(t *testing.T) {
	s := New(1)
	const n = spillAt + spillAt/4
	const bucket time.Duration = 1 << bucketShift
	timers := make([]Timer, n)
	fired := 0
	for i := range timers {
		c := s.Context(Key2D(int16(i%1000+1), 1))
		period, phase := 30*bucket, 30*bucket // the cluster, about 250 ms
		switch i % 4 {
		case 1:
			period, phase = 240*bucket, time.Duration(i)*97*time.Microsecond
		case 2:
			period, phase = 150*bucket, time.Duration(i)*61*time.Microsecond
		case 3:
			period, phase = 1200*bucket, time.Duration(i)*1200*bucket/n // past the ring
		}
		tm := &timers[i]
		tm.Init(c, func() {
			fired++
			tm.Reset(period)
		})
		tm.Reset(phase)
	}
	cycle := func() {
		if err := s.Run(s.Now() + 30*bucket); err != nil {
			t.Fatal(err)
		}
	}
	for s.Now() < 2*1200*bucket {
		cycle()
	}
	if q := &s.shards[0].queue; q.cal == nil || len(q.cal.over) == 0 {
		t.Fatalf("the queue did not spill into a calendar with an overflow heap: %+v", q.cal != nil)
	}
	before := fired
	// Forty cycles are one period of the longest timer.
	if avg := testing.AllocsPerRun(40, cycle); avg != 0 {
		t.Fatalf("a spilled queue cycling %d timers allocates %.1f objects per cycle, want 0", n, avg)
	}
	if fired-before < 41*n/4 {
		t.Fatalf("fired %d timers over the measured cycles, want at least the cluster's %d", fired-before, 41*n/4)
	}
}

// TestHeapEntryIsHalfACacheLine pins the layouts the kernel's memory
// behaviour rests on: two heap entries per cache line (so the four
// children of a heap node span two), compared without a dereference, and
// an Event small enough to embed in whatever it times.
func TestHeapEntryIsHalfACacheLine(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 32 {
		t.Errorf("unsafe.Sizeof(entry{}) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(Timer{}); got > 32 {
		t.Errorf("unsafe.Sizeof(Timer{}) = %d, want <= 32", got)
	}
}
