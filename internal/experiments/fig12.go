package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/agilla-go/agilla/internal/stats"
	"github.com/agilla-go/agilla/internal/vm"
)

// Fig12Ops is the instruction order of Figure 12.
var Fig12Ops = []string{
	"loc", "aid", "numnbrs", "randnbr", "getnbr",
	"pushrt", "pusht", "pushn", "pushcl", "pushloc",
	"regrxn", "deregrxn",
	"out", "inp", "rdp", "in", "rd", "tcount",
}

// Fig12Point is one instruction's latency.
type Fig12Point struct {
	Op      string
	Mean    time.Duration
	Class   string // "push/query", "memory/compute", "tuple space"
	Samples int
}

// Fig12Result is the local-instruction latency table.
type Fig12Result struct {
	Points []Fig12Point
}

// Fig12 reports the latency of each local instruction. §4 disabled the
// radio and timed each instruction 1000 times on a mote; that measurement
// is the calibrated cost column of the vm ISA table, and the engine
// charges it exactly: each instruction advances its agent's virtual
// clock by its cost (pinned by core's TestEngineChargesCostTable). So
// every mean is the instruction's cost row, and n is the paper's 1000
// repetitions (100 with Quick).
func Fig12(cfg Config) (*Fig12Result, error) {
	reps := 1000
	if cfg.Quick {
		reps = 100
	}
	res := &Fig12Result{}
	for _, name := range Fig12Ops {
		op, ok := vm.ByName(name)
		if !ok {
			return nil, fmt.Errorf("fig12: no instruction %q", name)
		}
		info, _ := vm.Lookup(op)
		res.Points = append(res.Points, Fig12Point{
			Op: name, Mean: info.Cost, Class: classify(info.Cost), Samples: reps,
		})
	}
	return res, nil
}

// classify assigns the three latency classes of Figure 12.
func classify(mean time.Duration) string {
	switch {
	case mean < 120*time.Microsecond:
		return "push/query (~75us)"
	case mean < 240*time.Microsecond:
		return "memory/compute (~150us)"
	default:
		return "tuple space (~292us)"
	}
}

// ClassMeans returns the average latency of each Figure 12 class.
func (r *Fig12Result) ClassMeans() map[string]time.Duration {
	sums := map[string]time.Duration{}
	counts := map[string]int{}
	for _, p := range r.Points {
		sums[p.Class] += p.Mean
		counts[p.Class]++
	}
	out := map[string]time.Duration{}
	for k := range sums {
		out[k] = sums[k] / time.Duration(counts[k])
	}
	return out
}

// String renders the sweep.
func (r *Fig12Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 12 — latency of local operations (µs)\n")
	t := stats.NewTable("Instruction", "Latency", "Class", "n")
	for _, p := range r.Points {
		t.AddRow(p.Op, fmt.Sprintf("%.0f", float64(p.Mean)/float64(time.Microsecond)), p.Class, p.Samples)
	}
	sb.WriteString(t.String())

	sb.WriteString("\nClass means:\n")
	means := r.ClassMeans()
	keys := make([]string, 0, len(means))
	for k := range means {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-26s %.0fµs\n", k, float64(means[k])/float64(time.Microsecond))
	}
	return sb.String()
}
