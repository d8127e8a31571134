package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	s.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	s.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	if err := s.RunUntilIdle(0); err != nil {
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
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	if err := s.RunUntilIdle(0); err != nil {
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
	var got []string
	s.Schedule(0, func() {
		got = append(got, "a")
		s.Post(func() { got = append(got, "c") })
	})
	s.Schedule(0, func() { got = append(got, "b") })
	if err := s.RunUntilIdle(0); err != nil {
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
	if err := s.RunUntilIdle(0); err != nil {
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
	e := s.ScheduleWorldAt(time.Second, func() {})
	e.Cancel()
	e.Cancel()
	var nilEvent *Event
	nilEvent.Cancel() // must not panic
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0: a repeated Stop or Cancel must not count twice", s.Pending())
	}
}

func TestRunStopsAtLimit(t *testing.T) {
	s := New(1)
	fired := 0
	s.Schedule(10*time.Millisecond, func() { fired++ })
	s.Schedule(20*time.Millisecond, func() { fired++ })
	s.Schedule(30*time.Millisecond, func() { fired++ })
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
		s.Schedule(time.Duration(i)*time.Millisecond, func() { n++ })
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

func TestRunUntilIdleRunawayGuard(t *testing.T) {
	s := New(1)
	var loop func()
	loop = func() { s.Schedule(time.Millisecond, loop) }
	loop()
	if err := s.RunUntilIdle(100); err == nil {
		t.Fatal("expected runaway error")
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	s := New(1)
	s.Schedule(time.Second, func() {})
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	s.Schedule(-time.Hour, func() { at = s.Now() })
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if at != time.Second {
		t.Fatalf("negative-delay event fired at %v, want 1s", at)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []int64 {
		s := New(seed)
		var out []int64
		var tick func()
		tick = func() {
			out = append(out, int64(s.Now()), s.Rand().Int63n(1000))
			if len(out) < 40 {
				s.Schedule(time.Duration(1+s.Rand().Int63n(5))*time.Millisecond, tick)
			}
		}
		s.Post(tick)
		if err := s.RunUntilIdle(0); err != nil {
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
		var times []time.Duration
		for _, d := range delays {
			s.Schedule(time.Duration(d)*time.Microsecond, func() {
				times = append(times, s.Now())
			})
		}
		if err := s.RunUntilIdle(0); err != nil {
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
