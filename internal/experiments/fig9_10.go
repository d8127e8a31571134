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
	"github.com/agilla-go/agilla/internal/tuplespace"
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
	node := core.Config{RemoteRetries: -1}
	d, err := newTestbed(cfg.Seed, node, nil)
	if err != nil {
		return nil, err
	}
	if err := d.WarmUp(); err != nil {
		return nil, err
	}

	res := &Fig9and10Result{}
	for h := 1; h <= 5; h++ {
		sm, err := runSmoveTrials(d, h, cfg.Trials)
		if err != nil {
			return nil, fmt.Errorf("smove %d hops: %w", h, err)
		}
		res.Smove = append(res.Smove, sm)

		ro, err := runRoutTrials(d, h, cfg.Trials)
		if err != nil {
			return nil, fmt.Errorf("rout %d hops: %w", h, err)
		}
		res.Rout = append(res.Rout, ro)
	}
	return res, nil
}

// runSmoveTrials executes the Figure 8 smove agent repeatedly.
func runSmoveTrials(d *core.Deployment, hops, trials int) (HopPoint, error) {
	target := hopTarget(hops)
	return runSmoveTrialsCode(d, hops, trials, agents.SmoveRoundTrip(target, d.Base.Loc()))
}

// runSmoveTrialsCode executes an arbitrary round-trip mover repeatedly.
// The code must strong-move to hopTarget(hops), strong-move back to the
// base, and halt.
func runSmoveTrialsCode(d *core.Deployment, hops, trials int, code []byte) (HopPoint, error) {
	pt := HopPoint{Hops: hops}
	target := hopTarget(hops)
	home := d.Base.Loc()

	d.Medium.Trace = func(f radio.Frame, _ topology.Location, _ bool) {
		if f.Kind == radio.KindMigrate || f.Kind == radio.KindMigrateCtl {
			pt.MigFrames++
		}
	}
	defer func() { d.Medium.Trace = nil }()

	for i := 0; i < trials; i++ {
		var reachedTarget, returnedHome, halted bool
		var haltAt time.Duration
		halts := 0

		d.Trace.AgentArrived = func(node topology.Location, _ uint16, kind wire.MigKind, _ topology.Location) {
			switch {
			case node == target && kind == wire.MigStrongMove:
				reachedTarget = true
			case node == home && kind == wire.MigStrongMove:
				returnedHome = true
			}
		}
		d.Trace.AgentHalted = func(node topology.Location, _ uint16) {
			halts++
			if node == home && !halted {
				halted = true
				haltAt = d.NowAt(node)
			}
		}

		start := d.Sim.Now()
		if _, err := d.Base.CreateAgent(code); err != nil {
			return pt, err
		}
		done, err := d.Sim.RunUntil(func() bool { return d.TotalAgents() == 0 }, d.Sim.Now()+20*time.Second)
		if err != nil {
			return pt, err
		}
		ok := done && reachedTarget && returnedHome && halted
		pt.Reliability.Record(ok)
		if halts > 1 {
			pt.Duplicates++
		}
		if ok {
			// Halve the round trip for the double migration (§4).
			pt.Latency.AddDuration((haltAt - start) / 2)
		}
		d.Trace.AgentArrived = nil
		d.Trace.AgentHalted = nil
		purgeAgents(d)
		purgeValueTuples(d)
		if err := settle(d, 500*time.Millisecond); err != nil {
			return pt, err
		}
	}
	return pt, nil
}

// runRoutTrials executes the Figure 8 rout agent repeatedly.
func runRoutTrials(d *core.Deployment, hops, trials int) (HopPoint, error) {
	pt := HopPoint{Hops: hops}
	target := hopTarget(hops)
	code := agents.Rout(target)

	for i := 0; i < trials; i++ {
		var resolved, ok bool
		var elapsed time.Duration
		d.Trace.RemoteDone = func(_ topology.Location, _ uint16, kind vm.RemoteKind, dest topology.Location, success bool, dt time.Duration) {
			if kind == vm.RemoteOut && dest == target && !resolved {
				resolved, ok, elapsed = true, success, dt
			}
		}
		if _, err := d.Base.CreateAgent(code); err != nil {
			return pt, err
		}
		if _, err := d.Sim.RunUntil(func() bool { return resolved }, d.Sim.Now()+10*time.Second); err != nil {
			return pt, err
		}
		// Reliability counts the tuple actually landing, confirmed by the
		// reply; a lost reply with a delivered tuple still counts as a
		// failed execution, as the initiator cannot tell the difference.
		pt.Reliability.Record(resolved && ok)
		if resolved && ok {
			pt.Latency.AddDuration(elapsed)
		}
		d.Trace.RemoteDone = nil
		purgeAgents(d)
		// Remove the deposited <1> so the next trial's space stays clean.
		d.Node(target).Space().RemoveAll(tuplespace.Tmpl(tuplespace.Int(1)))
		if err := settle(d, 200*time.Millisecond); err != nil {
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
