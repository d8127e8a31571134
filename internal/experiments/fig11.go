package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/stats"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
	"github.com/agilla-go/agilla/internal/wire"
)

// Fig11Ops is the operation order of Figure 11.
var Fig11Ops = []string{"rout", "rinp", "rrdp", "smove", "wmove", "sclone", "wclone"}

// Fig11Result is the one-hop latency of each remote tuple space and agent
// migration instruction.
type Fig11Result struct {
	Latency map[string]*stats.Series // ms
}

// Fig11 times each remote operation 100 times across one hop, from (1,1)
// to (2,1), as §4 does ("we found the one-hop execution time of all these
// instructions by timing each 100 times and finding the average").
func Fig11(cfg Config) (*Fig11Result, error) {
	cfg = cfg.withDefaults()
	d, err := newTestbed(cfg.Seed, core.Config{RemoteRetries: -1}, nil)
	if err != nil {
		return nil, err
	}
	src := d.Node(topology.Loc(1, 1))
	target := topology.Loc(2, 1)

	// A trial resolves on the reply to its remote op, or on its agent
	// (or clone) arriving at the target.
	var resolved bool
	var started, elapsed time.Duration
	d.Trace.RemoteDone = func(_ topology.Location, _ uint16, _ vm.RemoteKind, dest topology.Location, ok bool, dt time.Duration) {
		if dest == target && !resolved {
			resolved = true
			if ok {
				elapsed = dt
			}
		}
	}
	d.Trace.MigrationStarted = func(node topology.Location, _ uint16, _ wire.MigKind, dest topology.Location) {
		if dest == target && started == 0 {
			started = d.NowAt(node)
		}
	}
	d.Trace.AgentArrived = func(node topology.Location, _ uint16, kind wire.MigKind, _ topology.Location) {
		if node == target && kind != wire.MigInject && !resolved {
			resolved = true
			elapsed = d.NowAt(node) - started
		}
	}

	res := &Fig11Result{Latency: make(map[string]*stats.Series, len(Fig11Ops))}
	for _, op := range Fig11Ops {
		series := &stats.Series{}
		res.Latency[op] = series
		code, err := agents.OneHopOp(op, target)
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.Trials; i++ {
			// rinp/rrdp need something to find.
			if op == "rinp" || op == "rrdp" {
				if err := d.Node(target).Space().Out(tuplespace.T(tuplespace.Int(1))); err != nil {
					return nil, err
				}
			}
			resolved, started, elapsed = false, 0, 0
			if _, err := runAgent(d, src, src.Loc(), code, func() bool { return resolved }, 10*time.Second); err != nil {
				return nil, fmt.Errorf("%s trial %d: %w", op, i, err)
			}
			if resolved && elapsed > 0 {
				series.AddDuration(elapsed)
			}
			if err := reset(d, 300*time.Millisecond); err != nil {
				return nil, fmt.Errorf("%s trial %d: %w", op, i, err)
			}
		}
	}
	return res, nil
}

// String renders the Figure 11 bars as a table.
func (r *Fig11Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 11 — one-hop latency of remote operations (ms)\n")
	t := stats.NewTable("Opcode", "Mean", "Std", "Min", "Max", "n")
	for _, op := range Fig11Ops {
		s := r.Latency[op]
		t.AddRow(op,
			fmt.Sprintf("%.1f", s.Mean()),
			fmt.Sprintf("%.1f", s.Std()),
			fmt.Sprintf("%.1f", s.Min()),
			fmt.Sprintf("%.1f", s.Max()),
			s.N())
	}
	sb.WriteString(t.String())
	return sb.String()
}
