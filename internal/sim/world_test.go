package sim

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// worldLog records events with their (time, lane, per-lane sequence)
// identity so runs can be compared across executors: within a window,
// lanes on different shards execute concurrently, so only the sorted
// order is contractual (exactly like the core determinism suite).
type worldLog struct {
	mu    sync.Mutex
	seq   map[int]int
	lines []worldLine
}

type worldLine struct {
	at   time.Duration
	lane int // context index; -1 for world events
	seq  int
	desc string
}

func (l *worldLog) add(at time.Duration, lane int, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq[lane]++
	l.lines = append(l.lines, worldLine{at: at, lane: lane, seq: l.seq[lane], desc: fmt.Sprintf(format, args...)})
}

func (l *worldLog) sorted() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Slice(l.lines, func(i, j int) bool {
		a, b := l.lines[i], l.lines[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.lane != b.lane {
			return a.lane < b.lane
		}
		return a.seq < b.seq
	})
	out := make([]string, len(l.lines))
	for i, ln := range l.lines {
		out[i] = fmt.Sprintf("%v lane%d #%d %s", ln.at, ln.lane, ln.seq, ln.desc)
	}
	return out
}

// worldHarness drives an identical workload on any executor: a handful of
// contexts ticking and cross-sending, plus world events that mutate a
// shared table — the shape of a topology change. The sorted log must come
// out byte-identical whatever the executor.
func worldHarness(t *testing.T, ex Executor, keys []ContextKey) []string {
	t.Helper()
	log := &worldLog{seq: make(map[int]int)}
	shared := map[string]int{"gen": 1}
	const hop = 10 * time.Millisecond // >= the parallel window below
	ctxs := make([]*Ctx, len(keys))
	for i, k := range keys {
		ctxs[i] = ex.Context(k)
	}
	for i, c := range ctxs {
		i, c := i, c
		var tick func()
		n := 0
		tick = func() {
			n++
			// Reading the shared table from a node event is safe: world
			// events only mutate it with every worker parked.
			log.add(c.Now(), i, "tick%d gen=%d", n, shared["gen"])
			peer := (i + 1) % len(ctxs)
			c.Send(ctxs[peer], hop, func() {
				log.add(ctxs[peer].Now(), peer, "msg from ctx%d gen=%d", i, shared["gen"])
			})
			if n < 6 {
				c.Schedule(hop+time.Duration(i)*time.Millisecond, tick)
			}
		}
		c.Schedule(time.Duration(i)*time.Millisecond, tick)
	}
	// World events: one between ticks, one exactly on a tick instant
	// (must run after every node event at that instant), one scheduled by
	// a world event itself, one scheduled from a world event at its own
	// timestamp.
	ex.ScheduleWorldAt(15*time.Millisecond, func() {
		shared["gen"]++
		log.add(ex.Now(), -1, "gen->%d", shared["gen"])
	})
	ex.ScheduleWorldAt(20*time.Millisecond, func() {
		shared["gen"]++
		log.add(ex.Now(), -1, "gen->%d", shared["gen"])
		ex.ScheduleWorldAt(20*time.Millisecond, func() {
			shared["gen"] *= 10
			log.add(ex.Now(), -1, "gen->%d (same instant)", shared["gen"])
		})
		ex.ScheduleWorldAt(33*time.Millisecond, func() {
			shared["gen"]++
			log.add(ex.Now(), -1, "gen->%d (nested)", shared["gen"])
		})
	})
	if err := ex.Run(40 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	ex.ScheduleWorldAt(41*time.Millisecond, func() {
		shared["gen"]++
		log.add(ex.Now(), -1, "gen->%d (post)", shared["gen"])
	})
	if err := ex.Run(time.Hour); err != nil { // far horizon: runs until idle
		t.Fatalf("idle: %v", err)
	}
	log.add(ex.Now(), -2, "final executed=%d pending=%d gen=%d", ex.Executed(), ex.Pending(), shared["gen"])
	return log.sorted()
}

// TestWorldEventsMatchSequential proves the world lane replays the exact
// sequential schedule under the sharded executor, including world events
// landing on occupied instants and world events scheduled from world
// events.
func TestWorldEventsMatchSequential(t *testing.T) {
	keys := []ContextKey{Key2D(1, 1), Key2D(2, 1), Key2D(7, 1), Key2D(8, 1)}
	shardOf := func(k ContextKey) int {
		if k == Key2D(7, 1) || k == Key2D(8, 1) {
			return 1
		}
		return 0
	}
	seq := worldHarness(t, New(42), keys)
	for _, workers := range []int{2, 4} {
		par := worldHarness(t, NewParallel(42, workers, 10*time.Millisecond, shardOf), keys)
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d log lines, want %d\npar=%v\nseq=%v", workers, len(par), len(seq), par, seq)
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Errorf("workers=%d line %d:\n got %s\nwant %s", workers, i, par[i], seq[i])
			}
		}
	}
}

// TestWorldEventSpawnsSameInstantNodeEvents pins the interleave rule for
// a world callback that schedules node work at its own instant while a
// second world event waits at the same time: node events' context keys
// sort below WorldKey, so both executors must run them between the two
// world events.
func TestWorldEventSpawnsSameInstantNodeEvents(t *testing.T) {
	runOrder := func(ex Executor) []string {
		var order []string
		c := ex.Context(Key2D(1, 1))
		ex.ScheduleWorldAt(10*time.Millisecond, func() {
			order = append(order, "world1")
			c.Post(func() { order = append(order, "node") })
		})
		ex.ScheduleWorldAt(10*time.Millisecond, func() {
			order = append(order, "world2")
		})
		if err := ex.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
		return order
	}
	want := runOrder(New(3))
	if len(want) != 3 || want[1] != "node" {
		t.Fatalf("sequential order = %v, want [world1 node world2]", want)
	}
	got := runOrder(NewParallel(3, 2, time.Millisecond, nil))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("parallel order = %v, want %v", got, want)
	}
}

// TestWorldEventCancel checks cancelled world events never fire and do not
// count as pending.
func TestWorldEventCancel(t *testing.T) {
	for _, ex := range []Executor{New(1), NewParallel(1, 2, time.Millisecond, nil)} {
		fired := false
		e := ex.ScheduleWorldAt(5*time.Millisecond, func() { fired = true })
		e.Cancel()
		if got := ex.Pending(); got != 0 {
			t.Errorf("%T: pending = %d after cancel, want 0", ex, got)
		}
		if err := ex.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
		if fired {
			t.Errorf("%T: cancelled world event fired", ex)
		}
	}
}

// TestWorldOnlySchedule checks executors drive a schedule consisting of
// world events alone (no node events at all), with the clock visible to
// the callbacks matching the sequential executor.
func TestWorldOnlySchedule(t *testing.T) {
	for _, ex := range []Executor{New(1), NewParallel(1, 2, time.Millisecond, nil)} {
		var order []time.Duration
		ex.ScheduleWorldAt(30*time.Millisecond, func() { order = append(order, ex.Now()) })
		ex.ScheduleWorldAt(10*time.Millisecond, func() { order = append(order, ex.Now()) })
		if err := ex.Run(20 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if len(order) != 1 || order[0] != 10*time.Millisecond {
			t.Fatalf("%T: order after bounded run = %v", ex, order)
		}
		if now := ex.Now(); now != 20*time.Millisecond {
			t.Fatalf("%T: now = %v after bounded run, want 20ms", ex, now)
		}
		if err := ex.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
		if len(order) != 2 || order[1] != 30*time.Millisecond {
			t.Fatalf("%T: order = %v", ex, order)
		}
		if now := ex.Now(); now != 30*time.Millisecond {
			t.Fatalf("%T: now = %v after idle run, want 30ms", ex, now)
		}
	}
}
