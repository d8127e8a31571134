package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSeriesMoments(t *testing.T) {
	var s Series
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if !almost(s.Mean(), 5) {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Sample std of this classic set is sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); !almost(s.Std(), want) {
		t.Errorf("Std = %v, want %v", s.Std(), want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Std() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty series must report zeros")
	}
}

func TestSeriesSingle(t *testing.T) {
	var s Series
	s.Add(3)
	if s.Std() != 0 {
		t.Error("single-element std must be 0")
	}
	if s.Median() != 3 {
		t.Errorf("Median = %v", s.Median())
	}
}

func TestPercentiles(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	tests := []struct{ p, want float64 }{
		{0, 1}, {1, 1}, {50, 50}, {90, 90}, {100, 100}, {150, 100}, {-5, 1},
	}
	for _, tt := range tests {
		if got := s.Percentile(tt.p); !almost(got, tt.want) {
			t.Errorf("P%.0f = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestAddDuration(t *testing.T) {
	var s Series
	s.AddDuration(1500 * time.Microsecond)
	if !almost(s.Mean(), 1.5) {
		t.Errorf("AddDuration ms conversion broken: %v", s.Mean())
	}
}

func TestSeriesMeanBounds(t *testing.T) {
	f := func(vs []int32) bool {
		var s Series
		for _, v := range vs {
			s.Add(float64(v))
		}
		if len(vs) == 0 {
			return true
		}
		return s.Mean() >= s.Min()-1e-6 && s.Mean() <= s.Max()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReliability(t *testing.T) {
	var r Reliability
	for i := 0; i < 92; i++ {
		r.Record(true)
	}
	for i := 0; i < 8; i++ {
		r.Record(false)
	}
	if !almost(r.Rate(), 0.92) {
		t.Errorf("Rate = %v, want 0.92", r.Rate())
	}
	if r.Failures() != 8 {
		t.Errorf("Failures = %d", r.Failures())
	}
	var empty Reliability
	if empty.Rate() != 0 {
		t.Error("empty reliability must be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Hops", "smove", "rout")
	tb.AddRow(1, 0.995, 0.97)
	tb.AddRow(5, 0.92, 0.85)
	out := tb.String()
	if !strings.Contains(out, "Hops") || !strings.Contains(out, "0.92") {
		t.Errorf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	// Separator line is dashes.
	if !strings.HasPrefix(lines[1], "----") {
		t.Errorf("missing separator: %q", lines[1])
	}
}

func TestTableDurationCell(t *testing.T) {
	tb := NewTable("op", "latency")
	tb.AddRow("smove", 225*time.Millisecond)
	if !strings.Contains(tb.String(), "225.00ms") {
		t.Errorf("duration cell not formatted:\n%s", tb.String())
	}
}
