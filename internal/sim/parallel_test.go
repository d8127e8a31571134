package sim

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// harness builds a synthetic multi-entity workload on any executor: nEnt
// entities, each rescheduling itself with pseudo-random (deterministic)
// delays, drawing from its stream, and occasionally "transmitting" to a
// neighbor entity with a delay of at least window. Every execution is
// recorded as (time, entity, step) — the cross-executor comparison trace.
type harness struct {
	mu    sync.Mutex
	trace []string
}

const testWindow = 10 * time.Millisecond

// byColumn spreads Key2D contexts over shards by their x coordinate. (The
// raw key modulo a power of two would not: Key2D(x, y) is x<<16 + y + 1.)
func byColumn(shards int) func(ContextKey) int {
	return func(k ContextKey) int { return int(uint64(k)>>16) % shards }
}

func (h *harness) record(at time.Duration, key ContextKey, step int) {
	h.mu.Lock()
	h.trace = append(h.trace, fmt.Sprintf("%d/%d/%d", at, key, step))
	h.mu.Unlock()
}

func (h *harness) run(t *testing.T, ex *Parallel, nEnt int, until time.Duration) []string {
	t.Helper()
	ctxs := make([]*Ctx, nEnt)
	for i := range ctxs {
		ctxs[i] = ex.Context(Key2D(int16(i+1), 1))
	}
	var tick func(i, step int) func()
	tick = func(i, step int) func() {
		return func() {
			c := ctxs[i]
			h.record(c.Now(), c.Key(), step)
			// Entity-local pseudo-random behavior from its own stream.
			d := time.Duration(1+c.Rand().Int63n(8)) * time.Millisecond
			c.Schedule(d, tick(i, step+1))
			if c.Rand().Int63n(3) == 0 {
				// Cross-entity transmission with >= window latency.
				j := int(c.Rand().Int63n(int64(nEnt)))
				lat := testWindow + time.Duration(c.Rand().Int63n(5))*time.Millisecond
				c.Send(ctxs[j], lat, func() {
					h.record(ctxs[j].Now(), ctxs[j].Key(), -step)
				})
			}
		}
	}
	for i := range ctxs {
		ctxs[i].Schedule(time.Duration(i)*time.Millisecond, tick(i, 1))
	}
	if err := ex.Run(until); err != nil {
		t.Fatalf("run: %v", err)
	}
	return h.trace
}

// perEntity groups a trace by entity, preserving order, so schedules can
// be compared without imposing a global order on concurrent shards.
func perEntity(trace []string) map[string][]string {
	out := make(map[string][]string)
	for _, line := range trace {
		var at, key int64
		var step int
		fmt.Sscanf(line, "%d/%d/%d", &at, &key, &step)
		k := fmt.Sprint(key)
		out[k] = append(out[k], line)
	}
	return out
}

// sameSchedule fails the test unless both traces hold the same events in
// the same order for every entity.
func sameSchedule(t *testing.T, label string, wantTrace, gotTrace []string) {
	t.Helper()
	want, got := perEntity(wantTrace), perEntity(gotTrace)
	if len(want) != len(got) {
		t.Fatalf("%s: %d entities traced, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		g := got[k]
		if len(g) != len(w) {
			t.Fatalf("%s entity %s: %d events, want %d", label, k, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s entity %s event %d: got %s want %s", label, k, i, g[i], w[i])
			}
		}
	}
}

func TestParallelMatchesSequentialSchedule(t *testing.T) {
	const nEnt = 12
	const until = 2 * time.Second
	seqTrace := (&harness{}).run(t, New(7), nEnt, until)
	if len(seqTrace) == 0 {
		t.Fatal("one-shard harness executed nothing")
	}
	for _, shards := range []int{2, 3, 4, 8} {
		par := NewParallel(7, shards, testWindow, byColumn(shards))
		parTrace := (&harness{}).run(t, par, nEnt, until)
		sameSchedule(t, fmt.Sprintf("shards=%d", shards), seqTrace, parTrace)
		if par.Executed() != New(7).Executed()+uint64(len(seqTrace)) && par.Executed() == 0 {
			t.Fatalf("shards=%d executed nothing", shards)
		}
		if par.Now() != until {
			t.Fatalf("shards=%d: Now()=%v want %v", shards, par.Now(), until)
		}
	}
}

func TestParallelRunBoundaryEvents(t *testing.T) {
	// Events at exactly the until mark must run; later ones must not, and
	// the clock must land exactly on until — at any shard count.
	for _, mk := range []func() *Parallel{
		func() *Parallel { return New(1) },
		func() *Parallel {
			return NewParallel(1, 2, testWindow, func(k ContextKey) int { return int(uint64(k) % 2) })
		},
	} {
		ex := mk()
		a := ex.Context(Key2D(1, 1))
		var fired []string
		a.Schedule(50*time.Millisecond, func() { fired = append(fired, "at-until") })
		a.Schedule(50*time.Millisecond+1, func() { fired = append(fired, "past-until") })
		if err := ex.Run(50 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if len(fired) != 1 || fired[0] != "at-until" {
			t.Fatalf("fired = %v", fired)
		}
		if ex.Now() != 50*time.Millisecond {
			t.Fatalf("Now() = %v", ex.Now())
		}
	}
}

func TestParallelCrossShardArrivalAtUntil(t *testing.T) {
	// A cross-shard send landing exactly on the until mark must be
	// delivered before Run returns.
	p := NewParallel(3, 2, testWindow, func(k ContextKey) int { return int(uint64(k) % 2) })
	a, b := p.Context(Key2D(1, 1)), p.Context(Key2D(1, 2))
	if a.Shard() == b.Shard() {
		t.Fatal("test needs two shards")
	}
	delivered := false
	a.Schedule(0, func() {
		a.Send(b, 40*time.Millisecond, func() { delivered = true })
	})
	if err := p.Run(40 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("arrival at the until mark was not delivered")
	}
}

func TestParallelArrivalAtWindowEdgeKeepsOrder(t *testing.T) {
	// A send delayed by exactly the window, into a run that ends exactly
	// there, lands at the same instant as the receiver's own event and
	// must fire first: its sender's key is smaller. A closed pass over
	// the whole window would run the receiver's event before the arrival
	// reached its mailbox. Both halves, the run's end and a world event,
	// close there.
	for _, world := range []bool{false, true} {
		p := NewParallel(3, 2, testWindow, func(k ContextKey) int { return int(uint64(k) % 2) })
		a, b := p.Context(Key2D(1, 1)), p.Context(Key2D(1, 2))
		if a.Shard() == b.Shard() || a.Key() > b.Key() {
			t.Fatal("test needs two shards and the sender's key first")
		}
		var fired []string
		a.Schedule(0, func() {
			a.Send(b, testWindow, func() { fired = append(fired, "arrival") })
		})
		b.Schedule(testWindow, func() { fired = append(fired, "own") })
		until := testWindow
		if world {
			p.ScheduleWorldAt(testWindow, func() { fired = append(fired, "world") })
			until = time.Hour
		}
		if err := p.Run(until); err != nil {
			t.Fatal(err)
		}
		want := "[arrival own]"
		if world {
			want = "[arrival own world]"
		}
		if got := fmt.Sprint(fired); got != want {
			t.Fatalf("world event %v: fired %s, want %s", world, got, want)
		}
	}
}

func TestParallelRunUntilIdleAndClockRest(t *testing.T) {
	// When the queue drains, both executors leave the clock at the last
	// executed event, however far the horizon lies beyond it.
	for _, mk := range []func() *Parallel{
		func() *Parallel { return New(1) },
		func() *Parallel {
			return NewParallel(1, 2, testWindow, func(k ContextKey) int { return int(uint64(k) % 2) })
		},
	} {
		ex := mk()
		c := ex.Context(Key2D(1, 1))
		c.Schedule(30*time.Millisecond, func() {})
		c.Schedule(70*time.Millisecond, func() {})
		if err := ex.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
		if ex.Now() != 70*time.Millisecond {
			t.Fatalf("Now() after idle = %v, want 70ms", ex.Now())
		}
		if ex.Pending() != 0 {
			t.Fatalf("pending = %d", ex.Pending())
		}
	}
}

func TestParallelRunUntilPredicateAtBarrier(t *testing.T) {
	p := NewParallel(5, 2, testWindow, func(k ContextKey) int { return int(uint64(k) % 2) })
	c := p.Context(Key2D(1, 1))
	hit := false
	c.Schedule(25*time.Millisecond, func() { hit = true })
	ok, err := p.RunUntil(func() bool { return hit }, time.Second)
	if err != nil || !ok {
		t.Fatalf("RunUntil = %v, %v", ok, err)
	}
	// The run may have advanced past the event, but never beyond one
	// window past it.
	if p.Now() < 25*time.Millisecond || p.Now() > 25*time.Millisecond+2*testWindow {
		t.Fatalf("Now() = %v", p.Now())
	}
}

func TestParallelCrossShardBelowWindowPanics(t *testing.T) {
	p := NewParallel(5, 2, testWindow, func(k ContextKey) int { return int(uint64(k) % 2) })
	a, b := p.Context(Key2D(1, 1)), p.Context(Key2D(1, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("cross-shard send below the window must panic")
		}
	}()
	a.Send(b, time.Millisecond, func() {})
}

func TestNewParallelZeroWindowOnlyOnOneShard(t *testing.T) {
	if s := NewParallel(1, 1, 0, nil); s.Shards() != 1 {
		t.Fatalf("one shard without lookahead built %d shards", s.Shards())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("two shards without a lookahead window must panic")
		}
	}()
	NewParallel(1, 2, 0, nil)
}

// TestParallelBarrierStress hammers the window barrier with dense
// cross-shard traffic; run with -race it doubles as the data-race proof
// for the mailbox handoff.
func TestParallelBarrierStress(t *testing.T) {
	const nEnt = 32
	const shards = 8
	p := NewParallel(11, shards, testWindow, byColumn(shards))
	ctxs := make([]*Ctx, nEnt)
	for i := range ctxs {
		ctxs[i] = p.Context(Key2D(int16(i+1), 2))
	}
	var counts [nEnt]int // per-entity, touched only by that entity's shard events
	var tick func(i int) func()
	tick = func(i int) func() {
		return func() {
			counts[i]++
			c := ctxs[i]
			c.Schedule(time.Duration(1+c.Rand().Int63n(3))*time.Millisecond, tick(i))
			// Blast every other entity once in a while.
			if c.Rand().Int63n(4) == 0 {
				for j := range ctxs {
					if j == i {
						continue
					}
					jj := j
					c.Send(ctxs[jj], testWindow, func() { counts[jj]++ })
				}
			}
		}
	}
	for i := range ctxs {
		ctxs[i].Schedule(0, tick(i))
	}
	if err := p.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 || uint64(total) != p.Executed() {
		t.Fatalf("executed %d events, counted %d", p.Executed(), total)
	}
}

func TestParallelRunDrainedQueueRestsAtLastEvent(t *testing.T) {
	// When the queue drains inside the final window, both executors must
	// leave the clock at the last executed event, not at the until mark.
	for _, mk := range []func() *Parallel{
		func() *Parallel { return New(1) },
		func() *Parallel {
			return NewParallel(1, 2, testWindow, func(k ContextKey) int { return int(uint64(k) % 2) })
		},
	} {
		ex := mk()
		c := ex.Context(Key2D(1, 1))
		c.Schedule(95*time.Millisecond, func() {})
		if err := ex.Run(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if ex.Now() != 95*time.Millisecond {
			t.Fatalf("Now() after drained Run = %v, want 95ms", ex.Now())
		}
		// A later Run against an empty queue must keep the clock in place.
		if err := ex.Run(200 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if ex.Now() != 95*time.Millisecond {
			t.Fatalf("Now() after idle Run = %v, want 95ms", ex.Now())
		}
	}
}

// bothExecutors returns a fresh one-shard and a fresh two-shard executor.
func bothExecutors(seed int64) []*Parallel {
	return []*Parallel{New(seed), NewParallel(seed, 2, testWindow, byColumn(2))}
}

func TestRunNeverMovesClockBack(t *testing.T) {
	// A horizon already in the past is the current instant: with a later
	// event pending, neither Run nor RunUntil may set the clock — or what
	// a context sees of it — back to the stale mark.
	for _, ex := range bothExecutors(1) {
		c := ex.Context(Key2D(1, 1))
		c.Schedule(5*time.Second, func() {})
		c.Schedule(9*time.Second, func() {})
		if err := ex.Run(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := ex.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		if ex.Now() != 5*time.Second || c.Now() != 5*time.Second {
			t.Fatalf("%d shards: Run(2s) after Run(5s) left Now()=%v, context at %v", ex.Shards(), ex.Now(), c.Now())
		}
		if ok, err := ex.RunUntil(func() bool { return false }, -time.Second); ok || err != nil {
			t.Fatalf("%d shards: RunUntil = %v, %v", ex.Shards(), ok, err)
		}
		if ex.Now() != 5*time.Second || c.Now() != 5*time.Second {
			t.Fatalf("%d shards: RunUntil(-1s) left Now()=%v, context at %v", ex.Shards(), ex.Now(), c.Now())
		}
		if ex.Pending() != 1 {
			t.Fatalf("%d shards: pending = %d, want the 9s event still queued", ex.Shards(), ex.Pending())
		}
	}
}

// TestSlicedRunsMatchOneRun drives the kernel the way its hosts do — the
// benchmark, Scenario and `agilla serve` all reach a horizon through many
// short Run calls — and checks that is indistinguishable from one Run:
// same per-entity schedule, same Executed, same resting clock, with a
// world event, a cross-shard arrival and a step chain run in place each
// landing exactly on a slice boundary.
func TestSlicedRunsMatchOneRun(t *testing.T) {
	const nEnt = 6
	const T = time.Second
	// Uneven slices: an empty one at 0, a repeated mark, one a nanosecond
	// off a round instant, and two past the point the queue drains.
	slices := []time.Duration{0, 37 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond,
		250*time.Millisecond + 1, 300 * time.Millisecond, 613 * time.Millisecond, 950 * time.Millisecond, T}

	drive := func(ex *Parallel, marks []time.Duration) []string {
		h := &harness{}
		ctxs := make([]*Ctx, nEnt)
		for i := range ctxs {
			ctxs[i] = ex.Context(Key2D(int16(i+1), 1))
		}
		gen := 0 // written by world events only, read by node events
		var tick func(i, step int) func()
		tick = func(i, step int) func() {
			return func() {
				c := ctxs[i]
				h.record(c.Now(), c.Key(), step)
				if step == 100 {
					return // the queue drains well before T
				}
				d := time.Duration(1+int64(gen)+c.Rand().Int63n(8)) * time.Millisecond
				c.Schedule(d, tick(i, step+1))
				if c.Rand().Int63n(3) == 0 {
					j := int(c.Rand().Int63n(int64(nEnt)))
					c.Send(ctxs[j], testWindow+time.Duration(c.Rand().Int63n(5))*time.Millisecond, func() {
						h.record(ctxs[j].Now(), ctxs[j].Key(), -step)
					})
				}
				stepLocal(c, d/2, func() { h.record(c.Now(), c.Key(), 1000+step) })
			}
		}
		for i := range ctxs {
			ctxs[i].Schedule(time.Duration(i)*time.Millisecond, tick(i, 1))
		}
		// On slice boundaries: world events at 100ms and 300ms (the first
		// schedules the second), a cross-shard arrival at exactly 613ms,
		// and a local step chain from 249ms that crosses the 250ms+1 mark.
		ex.ScheduleWorldAt(100*time.Millisecond, func() {
			gen++
			h.record(ex.Now(), RootKey, gen)
			ex.ScheduleWorldAt(300*time.Millisecond, func() {
				gen++
				h.record(ex.Now(), RootKey, gen)
			})
		})
		a, b := ctxs[0], ctxs[1]
		if ex.Shards() > 1 && a.Shard() == b.Shard() {
			t.Fatal("test needs the boundary send to cross shards")
		}
		a.Schedule(613*time.Millisecond-testWindow, func() {
			a.Send(b, testWindow, func() { h.record(b.Now(), b.Key(), -9999) })
		})
		var chain func(n int) func()
		chain = func(n int) func() {
			return func() {
				h.record(b.Now(), b.Key(), 2000+n)
				if n < 8 {
					stepLocal(b, 500*time.Microsecond, chain(n+1))
				}
			}
		}
		b.Schedule(249*time.Millisecond, chain(0))

		for _, until := range marks {
			if err := ex.Run(until); err != nil {
				t.Fatal(err)
			}
			if ex.Pending() > 0 && ex.Now() != until {
				t.Fatalf("%d shards: Run(%v) with events pending left Now()=%v", ex.Shards(), until, ex.Now())
			}
		}
		if ex.Dispatched() >= ex.Executed() {
			t.Errorf("%d shards over %v: no step ran in place (dispatched %d of %d)", ex.Shards(), marks, ex.Dispatched(), ex.Executed())
		}
		h.record(ex.Now(), RootKey, int(ex.Executed()))
		return h.trace
	}

	whole := drive(New(21), []time.Duration{T})
	if rest := perEntity(whole)["0"]; len(rest) != 3 {
		t.Fatalf("world lane traced %v, want two world events and the final line", rest)
	}
	for i, mk := range []func() *Parallel{
		func() *Parallel { return New(21) },
		func() *Parallel { return NewParallel(21, 2, testWindow, byColumn(2)) },
		func() *Parallel { return NewParallel(21, 3, testWindow, byColumn(3)) },
	} {
		sameSchedule(t, fmt.Sprintf("executor %d, one run", i), whole, drive(mk(), []time.Duration{T}))
		sameSchedule(t, fmt.Sprintf("executor %d, sliced", i), whole, drive(mk(), slices))
	}
}
