// Package stats provides the small statistics toolkit the experiment
// harness uses to regenerate the paper's figures: streaming series with
// moments and percentiles, success/failure reliability counters, and
// fixed-width table rendering for paper-style output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Series accumulates float64 observations.
// The zero value is ready to use.
type Series struct {
	values []float64
	sum    float64
	sorted bool
}

// Add appends one observation.
func (s *Series) Add(v float64) {
	s.values = append(s.values, v)
	s.sum += v
	s.sorted = false
}

// AddDuration appends a time observation in milliseconds.
func (s *Series) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// N returns the number of observations.
func (s *Series) N() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Std returns the sample standard deviation, or 0 with fewer than two
// observations.
func (s *Series) Std() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Min returns the smallest observation, or 0 for an empty series.
func (s *Series) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	min := s.values[0]
	for _, v := range s.values[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest observation, or 0 for an empty series.
func (s *Series) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	max := s.values[0]
	for _, v := range s.values[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Percentile returns the p-th percentile (0-100) using nearest-rank, or 0
// for an empty series.
func (s *Series) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[len(s.values)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.values))))
	return s.values[rank-1]
}

// Median returns the 50th percentile.
func (s *Series) Median() float64 { return s.Percentile(50) }

// Reliability counts successes over trials, as in Figure 9.
// The zero value is ready to use.
type Reliability struct {
	Trials    int
	Successes int
}

// Record adds one trial outcome.
func (r *Reliability) Record(ok bool) {
	r.Trials++
	if ok {
		r.Successes++
	}
}

// Rate returns the success fraction in [0,1], or 0 with no trials.
func (r *Reliability) Rate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Successes) / float64(r.Trials)
}

// Failures returns the failed-trial count.
func (r *Reliability) Failures() int { return r.Trials - r.Successes }

// Table renders aligned fixed-width tables for the benchmark harness output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells render with fmt.Sprint.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.2fms", float64(v)/float64(time.Millisecond))
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}
