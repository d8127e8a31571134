package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/stats"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/vm"
	"github.com/agilla-go/agilla/internal/wire"
)

// HopPoint is one (hops, operation) data point of Figures 9 and 10.
type HopPoint struct {
	Hops        int
	Reliability stats.Reliability
	Latency     stats.Series // milliseconds, successful executions only
	// Duplicates counts trials where the duplicate-tolerant failure
	// semantics left more than one live copy of the agent (§3.2).
	Duplicates int
	// MigFrames counts migration-protocol frames offered to the radio
	// across all trials (data + acks, excluding beacons).
	MigFrames uint64
}

// Fig9and10Result carries both figures: reliability (Figure 9) and latency
// (Figure 10) of smove vs rout across 1-5 hops.
type Fig9and10Result struct {
	Smove []HopPoint
	Rout  []HopPoint
}

// Fig9and10 reproduces Figures 9 and 10: the Figure 8 agents are injected
// into node (0,0) and run Trials times for 1-5 hops. The smove agent
// moves to (h,1) and back; latency is halved to account for the double
// migration. The rout agent places a tuple in (h,1)'s tuple space.
//
// Per the figure methodology (§4), remote-op retransmission is disabled
// here so reported reliability and latency describe single executions of
// the operation; the middleware's 2-second retransmissions would otherwise
// fold multiple executions into one number.
func Fig9and10(cfg Config) (*Fig9and10Result, error) {
	cfg = cfg.withDefaults()
	b, err := newHopBench(cfg.Seed, core.Config{RemoteRetries: -1}, nil)
	if err != nil {
		return nil, err
	}
	res := &Fig9and10Result{}
	for h := 1; h <= 5; h++ {
		sm, err := b.smoveTrials(h, cfg.Trials, agents.SmoveRoundTrip)
		if err != nil {
			return nil, fmt.Errorf("smove %d hops: %w", h, err)
		}
		res.Smove = append(res.Smove, sm)

		ro, err := b.routTrials(h, cfg.Trials)
		if err != nil {
			return nil, fmt.Errorf("rout %d hops: %w", h, err)
		}
		res.Rout = append(res.Rout, ro)
	}
	return res, nil
}

// hopBench is a testbed for the smove and rout trials of Figures 9 and 10
// and the ablations. Its trace hooks are installed once and write the
// fields below; each trial clears them before it starts.
type hopBench struct {
	d         *core.Deployment
	target    topology.Location
	migFrames uint64
	// The smove round trip.
	reachedTarget, returnedHome, halted bool
	haltAt                              time.Duration
	halts                               int
	// The rout.
	resolved, ok bool
	elapsed      time.Duration
}

func newHopBench(seed int64, node core.Config, params *radio.Params) (*hopBench, error) {
	d, err := newTestbed(seed, node, params)
	if err != nil {
		return nil, err
	}
	b := &hopBench{d: d}
	home := d.Base.Loc()
	d.Medium.Trace = func(f radio.Frame, _ topology.Location, _ bool) {
		if f.Kind == radio.KindMigrate || f.Kind == radio.KindMigrateCtl {
			b.migFrames++
		}
	}
	d.Trace.AgentArrived = func(node topology.Location, _ uint16, kind wire.MigKind, _ topology.Location) {
		switch {
		case node == b.target && kind == wire.MigStrongMove:
			b.reachedTarget = true
		case node == home && kind == wire.MigStrongMove:
			b.returnedHome = true
		}
	}
	d.Trace.AgentHalted = func(node topology.Location, _ uint16) {
		b.halts++
		if node == home && !b.halted {
			b.halted = true
			b.haltAt = d.NowAt(node)
		}
	}
	d.Trace.RemoteDone = func(_ topology.Location, _ uint16, kind vm.RemoteKind, dest topology.Location, success bool, dt time.Duration) {
		if kind == vm.RemoteOut && dest == b.target && !b.resolved {
			b.resolved, b.ok, b.elapsed = true, success, dt
		}
	}
	return b, nil
}

// smoveTrials runs the round-trip mover build makes from the base
// station: it must strong-move to target, strong-move back home, and
// halt.
func (b *hopBench) smoveTrials(hops, trials int, build func(target, home topology.Location) []byte) (HopPoint, error) {
	d := b.d
	pt := HopPoint{Hops: hops}
	b.target, b.migFrames = hopTarget(hops), 0
	code := build(b.target, d.Base.Loc())
	for i := 0; i < trials; i++ {
		b.reachedTarget, b.returnedHome, b.halted, b.halts = false, false, false, 0
		start := d.Sim.Now()
		done, err := runAgent(d, d.Base, d.Base.Loc(), code, func() bool { return d.TotalAgents() == 0 }, 20*time.Second)
		if err != nil {
			return pt, err
		}
		ok := done && b.reachedTarget && b.returnedHome && b.halted
		pt.Reliability.Record(ok)
		if b.halts > 1 {
			pt.Duplicates++
		}
		if ok {
			// Halve the round trip for the double migration (§4).
			pt.Latency.AddDuration((b.haltAt - start) / 2)
		}
		if err := reset(d, 500*time.Millisecond); err != nil {
			return pt, err
		}
	}
	pt.MigFrames = b.migFrames
	return pt, nil
}

// routTrials runs the Figure 8 rout agent from the base station.
func (b *hopBench) routTrials(hops, trials int) (HopPoint, error) {
	d := b.d
	pt := HopPoint{Hops: hops}
	b.target = hopTarget(hops)
	code := agents.Rout(b.target)
	for i := 0; i < trials; i++ {
		b.resolved = false
		if _, err := runAgent(d, d.Base, d.Base.Loc(), code, func() bool { return b.resolved }, 10*time.Second); err != nil {
			return pt, err
		}
		// Reliability counts the tuple actually landing, confirmed by the
		// reply; a lost reply with a delivered tuple still counts as a
		// failed execution, as the initiator cannot tell the difference.
		pt.Reliability.Record(b.resolved && b.ok)
		if b.resolved && b.ok {
			pt.Latency.AddDuration(b.elapsed)
		}
		// reset also removes the deposited <1>, so the next trial's
		// space stays clean.
		if err := reset(d, 200*time.Millisecond); err != nil {
			return pt, err
		}
	}
	return pt, nil
}

// String renders both figures in the paper's layout.
func (r *Fig9and10Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 9 — reliability of smove vs rout (fraction of successful executions)\n")
	t9 := stats.NewTable("Hops", "smove", "rout", "smove n", "rout n")
	for i := range r.Smove {
		t9.AddRow(r.Smove[i].Hops,
			fmt.Sprintf("%.3f", r.Smove[i].Reliability.Rate()),
			fmt.Sprintf("%.3f", r.Rout[i].Reliability.Rate()),
			r.Smove[i].Reliability.Trials,
			r.Rout[i].Reliability.Trials)
	}
	sb.WriteString(t9.String())
	sb.WriteString("\nFigure 10 — latency of smove vs rout (ms, mean over successes)\n")
	t10 := stats.NewTable("Hops", "smove", "rout", "smove σ", "rout σ")
	for i := range r.Smove {
		t10.AddRow(r.Smove[i].Hops,
			fmt.Sprintf("%.1f", r.Smove[i].Latency.Mean()),
			fmt.Sprintf("%.1f", r.Rout[i].Latency.Mean()),
			fmt.Sprintf("%.1f", r.Smove[i].Latency.Std()),
			fmt.Sprintf("%.1f", r.Rout[i].Latency.Std()))
	}
	sb.WriteString(t10.String())
	return sb.String()
}
