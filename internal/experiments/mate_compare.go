package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/mate"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sensor"
	"github.com/agilla-go/agilla/internal/stats"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/wire"
)

// MateRow is one reprogramming scenario.
type MateRow struct {
	Scenario string
	System   string
	Frames   uint64
	Bytes    uint64
	Elapsed  time.Duration
	Nodes    int // nodes whose software changed
}

// MateResult is the E9 comparison: the paper's qualitative §5 argument —
// Maté must flood code to every node while Agilla injects agents exactly
// where they are needed — made quantitative.
type MateResult struct {
	Rows []MateRow
}

// MateCompare runs two retasking scenarios on identical 5×5 lossy radios:
//
//	single-node: add one task at one mote, e.g. the FIRETRACKER of §5.
//	  Agilla injects one agent to (3,3); Maté has no targeting and must
//	  flood a new capsule version to all 25 nodes.
//
//	whole-network: deploy a new application everywhere.
//	  Agilla self-spreads an agent by weak cloning; Maté floods capsules.
func MateCompare(cfg Config) (*MateResult, error) {
	cfg = cfg.withDefaults()
	res := &MateResult{}

	// --- Agilla single-node injection --------------------------------
	d, err := newTestbed(cfg.Seed, core.Config{}, nil)
	if err != nil {
		return nil, err
	}
	base := d.Medium.Stats()
	start := d.Sim.Now()
	target := topology.Loc(3, 3)
	arrived := false
	d.Trace.AgentArrived = func(node topology.Location, _ uint16, kind wire.MigKind, _ topology.Location) {
		if node == target && kind == wire.MigInject {
			arrived = true
		}
	}
	code := asm.MustAssemble("pushc 1\nputled\npushn new\npushc 1\nout\nhalt")
	if _, err := runAgent(d, d.Base, target, code, func() bool { return arrived }, time.Minute); err != nil {
		return nil, err
	}
	after := d.Medium.Stats()
	res.Rows = append(res.Rows, MateRow{
		Scenario: "single-node task", System: "Agilla (inject)",
		Frames:  after.Sent - base.Sent,
		Bytes:   after.Bytes - base.Bytes,
		Elapsed: d.Sim.Now() - start,
		Nodes:   1,
	})

	// --- Maté single-node attempt: flooding is all it has ------------
	frames, bytes, elapsed, nodes, err := runMateFlood(cfg.Seed, 1, code)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, MateRow{
		Scenario: "single-node task", System: "Mate (flood)",
		Frames: frames, Bytes: bytes, Elapsed: elapsed, Nodes: nodes,
	})

	// --- Agilla whole-network deployment -----------------------------
	d2, err := newTestbed(cfg.Seed+1, core.Config{}, nil)
	if err != nil {
		return nil, err
	}
	base2 := d2.Medium.Stats()
	start2 := d2.Sim.Now()
	covered := func() int {
		n := 0
		for _, node := range d2.Motes() {
			if node.Space().Count(tuplespace.Tmpl(tuplespace.Str("vst"))) > 0 {
				n++
			}
		}
		return n
	}
	spreader := agents.Spreader("pushc 2\nputled\nhalt")
	if _, err := runAgent(d2, d2.Base, topology.Loc(1, 1), spreader, func() bool { return covered() >= 25 }, 5*time.Minute); err != nil {
		return nil, err
	}
	after2 := d2.Medium.Stats()
	res.Rows = append(res.Rows, MateRow{
		Scenario: "whole-network app", System: "Agilla (wclone flood)",
		Frames:  after2.Sent - base2.Sent,
		Bytes:   after2.Bytes - base2.Bytes,
		Elapsed: d2.Sim.Now() - start2,
		Nodes:   covered(),
	})

	// --- Maté whole-network flood -------------------------------------
	frames, bytes, elapsed, nodes, err = runMateFlood(cfg.Seed+1, 2, code)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, MateRow{
		Scenario: "whole-network app", System: "Mate (flood)",
		Frames: frames, Bytes: bytes, Elapsed: elapsed, Nodes: nodes,
	})
	return res, nil
}

// runMateFlood floods one capsule version and reports the cost to
// convergence.
func runMateFlood(seed int64, version uint16, code []byte) (frames, bytes uint64, elapsed time.Duration, nodes int, err error) {
	capCode := code
	if len(capCode) > mate.MaxCapsuleCode {
		capCode = capCode[:mate.MaxCapsuleCode]
	}
	nw, err := mate.NewGridNetwork(seed, 5, 5, radio.Lossy(), sensor.Constant(25), mate.Config{})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	nw.Start()
	// Let the advertisement rhythm establish, mirroring WarmUp.
	if err := nw.Sim.Run(5 * time.Second); err != nil {
		return 0, 0, 0, 0, err
	}
	base := nw.Medium.Stats()
	start := nw.Sim.Now()
	if err := nw.Inject(topology.Loc(1, 1), mate.Capsule{
		Type: mate.CapsuleClock, Version: version, Code: capCode,
	}); err != nil {
		return 0, 0, 0, 0, err
	}
	if _, err := nw.Sim.RunUntil(func() bool {
		return nw.Converged(mate.CapsuleClock, version)
	}, nw.Sim.Now()+10*time.Minute); err != nil {
		return 0, 0, 0, 0, err
	}
	after := nw.Medium.Stats()
	changed := 0
	for _, n := range nw.Nodes() {
		if n.Version(mate.CapsuleClock) >= version {
			changed++
		}
	}
	return after.Sent - base.Sent, after.Bytes - base.Bytes, nw.Sim.Now() - start, changed, nil
}

// String renders the comparison.
func (r *MateResult) String() string {
	var sb strings.Builder
	sb.WriteString("E9 — reprogramming cost: Agilla vs Mate (same 5x5 lossy radio)\n")
	t := stats.NewTable("Scenario", "System", "Frames", "Bytes", "Time", "Nodes changed")
	for _, row := range r.Rows {
		t.AddRow(row.Scenario, row.System, row.Frames, row.Bytes,
			fmt.Sprintf("%.1fs", row.Elapsed.Seconds()), row.Nodes)
	}
	sb.WriteString(t.String())
	sb.WriteString("\nMate cannot target a subset of nodes: any change re-floods the network\n" +
		"and replaces the single running application (§5). Agilla injects one agent\n" +
		"to one node, and different applications coexist.\n")
	return sb.String()
}
