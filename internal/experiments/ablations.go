package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/stats"
	"github.com/agilla-go/agilla/internal/topology"
)

// AblationRow is one configuration's 1/3/5-hop smove reliability.
type AblationRow struct {
	Label      string
	Rate       map[int]float64 // hops -> success rate
	Latency    map[int]float64 // hops -> mean ms
	Duplicates map[int]int     // hops -> trials with duplicated agents
	Frames     map[int]uint64  // hops -> migration frames offered
}

// AblationResult collects one design-choice ablation's rows.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// AblationEndToEnd compares the shipped hop-by-hop migration protocol with
// the end-to-end variant the authors tried first and abandoned (§3.2: "We
// tried using end-to-end communication ... unacceptably prone to
// failure"), sweeping channel loss with a realistic multi-message agent.
// See README.md (Calibration) for the reading: the patient end-to-end
// sender collapses as loss rises; the naive one (hop-by-hop's 0.1s timer
// reused) "succeeds" only by flooding duplicate copies at several times
// the traffic.
func AblationEndToEnd(cfg Config) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	res := &AblationResult{Title: "hop-by-hop vs end-to-end migration under rising loss (fat-agent smove)"}
	variants := []struct {
		label string
		node  core.Config
	}{
		{"hop-by-hop", core.Config{}},
		// A patient end-to-end sender: full-set retransmissions on a
		// 1-second timer (10× the per-hop ack timeout).
		{"end-to-end (1s timer)", core.Config{EndToEndMigration: true}},
		// The naive first implementation: reuse the hop-by-hop 0.1s
		// retransmission constant. The completion ack cannot cross a
		// multi-hop path before the sender gives up — the mechanical
		// failure the paper's §3.2 remark describes.
		{"end-to-end (0.1s timer)", core.Config{EndToEndMigration: true, AckTimeout: 10 * time.Millisecond}},
	}
	// Scale the burst-entry probability to raise the marginal loss.
	losses := []struct {
		label string
		pgb   float64
	}{
		{"~2% loss", 0.006},
		{"~7% loss", 0.022},
		{"~14% loss", 0.05},
	}
	for _, lv := range losses {
		p := radio.Lossy()
		p.PGoodBad = lv.pgb
		for _, v := range variants {
			pp := p
			row, err := smoveSweep(cfg, v.label+" @ "+lv.label, v.node, &pp, fatRoundTrip)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// fatRoundTrip builds a round-trip mover whose 12 heap variables and long
// code body force a multi-message transfer.
func fatRoundTrip(target, home topology.Location) []byte {
	var sb strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&sb, "pushcl %d\nsetvar %d\n", 1000+i, i)
	}
	fmt.Fprintf(&sb, "pushloc %d %d\nsmove\n", target.X, target.Y)
	fmt.Fprintf(&sb, "pushloc %d %d\nsmove\nhalt\n", home.X, home.Y)
	return asm.MustAssemble(sb.String())
}

// AblationLossModel compares the calibrated Gilbert–Elliott burst-loss
// channel with an independent (Bernoulli) channel of the same marginal
// loss rate. Burst loss is what defeats retransmission often enough to
// reproduce Figure 9; independent loss makes hop-by-hop retransmission
// nearly perfect.
func AblationLossModel(cfg Config) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	res := &AblationResult{Title: "burst (Gilbert-Elliott) vs independent (Bernoulli) loss (smove reliability)"}

	ge := radio.Lossy()
	// Stationary marginal loss of the calibrated GE chain.
	piBad := ge.PGoodBad / (ge.PGoodBad + ge.PBadGood)
	marginal := (1-piBad)*ge.LossGood + piBad*ge.LossBad

	bern := radio.Lossy()
	bern.LossGood = marginal
	bern.LossBad = marginal
	bern.PGoodBad = 0
	bern.PBadGood = 0

	variants := []struct {
		label  string
		params radio.Params
	}{
		{fmt.Sprintf("Gilbert-Elliott (avg %.1f%%)", marginal*100), ge},
		{fmt.Sprintf("Bernoulli (%.1f%%)", marginal*100), bern},
	}
	for _, v := range variants {
		p := v.params
		row, err := smoveSweep(cfg, v.label, core.Config{}, &p, agents.SmoveRoundTrip)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationRetries sweeps the migration retransmission budget. The paper
// retransmits up to four times; fewer retries trade reliability for lower
// worst-case latency.
func AblationRetries(cfg Config) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	res := &AblationResult{Title: "migration retransmission budget (smove reliability)"}
	for _, retries := range []int{1, 2, 4, 8} {
		node := core.Config{MaxRetries: retries}
		// Longer budgets need a matching receiver stall allowance.
		if retries > 4 {
			node.ReceiverStall = time.Duration(retries) * 150 * time.Millisecond
		}
		row, err := smoveSweep(cfg, fmt.Sprintf("retries=%d", retries), node, nil, agents.SmoveRoundTrip)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// smoveSweep measures smove reliability and latency at 1, 3, and 5 hops
// under one configuration, with the round-trip mover build makes.
func smoveSweep(cfg Config, label string, node core.Config, params *radio.Params,
	build func(target, home topology.Location) []byte) (AblationRow, error) {
	row := AblationRow{
		Label: label,
		Rate:  map[int]float64{}, Latency: map[int]float64{},
		Duplicates: map[int]int{}, Frames: map[int]uint64{},
	}
	b, err := newHopBench(cfg.Seed, node, params)
	if err != nil {
		return row, err
	}
	for _, h := range []int{1, 3, 5} {
		pt, err := b.smoveTrials(h, cfg.Trials, build)
		if err != nil {
			return row, err
		}
		row.Rate[h] = pt.Reliability.Rate()
		row.Latency[h] = pt.Latency.Mean()
		row.Duplicates[h] = pt.Duplicates
		row.Frames[h] = pt.MigFrames
	}
	return row, nil
}

// String renders the ablation table.
func (r *AblationResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation — %s\n", r.Title)
	t := stats.NewTable("Variant", "1 hop", "3 hops", "5 hops", "5-hop ms", "5-hop dups", "5-hop frames")
	for _, row := range r.Rows {
		t.AddRow(row.Label,
			fmt.Sprintf("%.2f", row.Rate[1]),
			fmt.Sprintf("%.2f", row.Rate[3]),
			fmt.Sprintf("%.2f", row.Rate[5]),
			fmt.Sprintf("%.0f", row.Latency[5]),
			row.Duplicates[5],
			row.Frames[5])
	}
	sb.WriteString(t.String())
	return sb.String()
}
