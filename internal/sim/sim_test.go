package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	root := s.Context(RootKey)
	var got []int
	root.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	root.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	root.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	root := s.Context(RootKey)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		root.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestPostRunsAfterQueuedThisInstant(t *testing.T) {
	s := New(1)
	root := s.Context(RootKey)
	var got []string
	root.Schedule(0, func() {
		got = append(got, "a")
		root.Post(func() { got = append(got, "c") })
	})
	root.Schedule(0, func() { got = append(got, "b") })
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("got %v, want [a b c]", got)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	var tm Timer
	tm.Init(s.Context(RootKey), func() { fired = true })
	tm.Reset(time.Second)
	tm.Stop()
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after Stop, want 0", s.Pending())
	}
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	s := New(1)
	var tm, unbound Timer
	tm.Init(s.Context(RootKey), func() {})
	tm.Reset(time.Second)
	tm.Stop()
	tm.Stop()
	unbound.Stop() // must not panic
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0: a repeated Stop must not count twice", s.Pending())
	}
}

func TestRunStopsAtLimit(t *testing.T) {
	s := New(1)
	root := s.Context(RootKey)
	fired := 0
	root.Schedule(10*time.Millisecond, func() { fired++ })
	root.Schedule(20*time.Millisecond, func() { fired++ })
	root.Schedule(30*time.Millisecond, func() { fired++ })
	if err := s.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (event at exactly the limit must run)", fired)
	}
	if s.Now() != 20*time.Millisecond {
		t.Fatalf("Now = %v, want 20ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
}

func TestRunUntilPredicate(t *testing.T) {
	s := New(1)
	n := 0
	for i := 1; i <= 5; i++ {
		s.Context(RootKey).Schedule(time.Duration(i)*time.Millisecond, func() { n++ })
	}
	ok, err := s.RunUntil(func() bool { return n == 3 }, time.Second)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v, want true,nil", ok, err)
	}
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
	ok, err = s.RunUntil(func() bool { return n == 100 }, time.Second)
	if err != nil || ok {
		t.Fatalf("unreachable predicate: ok=%v err=%v", ok, err)
	}
	if n != 5 {
		t.Fatalf("n = %d, want 5 after draining", n)
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	s := New(1)
	root := s.Context(RootKey)
	root.Schedule(time.Second, func() {})
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	root.Schedule(-time.Hour, func() { at = root.Now() })
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if at != time.Second {
		t.Fatalf("negative-delay event fired at %v, want 1s", at)
	}
}

func TestDeadlinePastMaxDurationSaturates(t *testing.T) {
	// A delay near the largest Duration, given at 1 s, must not wrap
	// around to a time before the clock: Timer.Reset, Schedule and Send
	// all saturate at the largest Duration, so those events sort after
	// everything finite, wait out any finite run, and fire last, in
	// scheduling order, with each context's clock still moving forward.
	// On one shard and on two.
	for _, shards := range []int{1, 2} {
		p := NewParallel(1, shards, time.Millisecond, func(k ContextKey) int { return int(uint64(k)>>16) % 2 })
		a, b := p.Context(Key2D(1, 1)), p.Context(Key2D(2, 1))
		// Each lane is written only from its own context's shard.
		type lane struct {
			c     *Ctx
			fired []string
			last  time.Duration
		}
		la, lb := &lane{c: a}, &lane{c: b}
		record := func(l *lane, name string) func() {
			return func() {
				if now := l.c.Now(); now < l.last {
					t.Errorf("%d shards: %s ran at %v, after an event at %v", shards, name, now, l.last)
				}
				l.last = l.c.Now()
				l.fired = append(l.fired, name)
			}
		}
		var tm Timer
		tm.Init(a, record(la, "timer"))
		a.Schedule(time.Second, func() {
			tm.Reset(math.MaxInt64)
			a.Schedule(math.MaxInt64-time.Millisecond, record(la, "schedule"))
			a.Send(b, math.MaxInt64, record(lb, "send"))
			a.Schedule(time.Millisecond, record(la, "1ms"))
		})
		if err := p.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(la.fired, lb.fired) != "[1ms] []" || p.Now() != time.Hour || p.Pending() != 3 {
			t.Fatalf("%d shards: after Run(1h) fired %v and %v, clock %v, %d pending; want [1ms] and none, 1h, 3",
				shards, la.fired, lb.fired, p.Now(), p.Pending())
		}
		if err := p.Run(math.MaxInt64); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(la.fired, lb.fired); got != "[1ms timer schedule] [send]" || p.Now() != math.MaxInt64 {
			t.Fatalf("%d shards: fired %s, clock %v; want [1ms timer schedule] [send], at the largest Duration", shards, got, p.Now())
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []int64 {
		s := New(seed)
		root := s.Context(RootKey)
		var out []int64
		var tick func()
		tick = func() {
			out = append(out, int64(root.Now()), root.Rand().Int63n(1000))
			if len(out) < 40 {
				root.Schedule(time.Duration(1+root.Rand().Int63n(5))*time.Millisecond, tick)
			}
		}
		root.Post(tick)
		if err := s.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := len(a) == len(c)
	if same {
		diff := false
		for i := range a {
			if a[i] != c[i] {
				diff = true
				break
			}
		}
		if !diff {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

// Property: no matter what delays are scheduled, events fire in
// non-decreasing time order and the clock never runs backwards.
func TestQueueOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		s := New(7)
		root := s.Context(RootKey)
		var times []time.Duration
		for _, d := range delays {
			root.Schedule(time.Duration(d)*time.Microsecond, func() {
				times = append(times, root.Now())
			})
		}
		if err := s.Run(time.Hour); err != nil {
			return false
		}
		if len(times) != len(delays) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
