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
	"github.com/agilla-go/agilla/internal/wire"
)

// Fig5Row is one migration message type.
type Fig5Row struct {
	Type    string
	Size    int
	Content string
}

// Fig5Result pins the migration message formats to Figure 5.
type Fig5Result struct {
	Rows []Fig5Row
}

// Fig5Sizes reports the implemented migration message sizes (E5). The
// values are computed from live encoders, not constants, so drift fails
// the experiment.
func Fig5Sizes() (*Fig5Result, error) {
	heap, err := (wire.HeapMsg{Entries: []wire.HeapEntry{
		{Addr: 0, Value: tuplespace.Int(1)},
		{Addr: 1, Value: tuplespace.Int(2)},
		{Addr: 2, Value: tuplespace.Int(3)},
		{Addr: 3, Value: tuplespace.Int(4)},
	}}).Append(nil)
	if err != nil {
		return nil, err
	}
	stack, err := (wire.StackMsg{Values: []tuplespace.Value{
		tuplespace.Int(1), tuplespace.Int(2), tuplespace.Int(3), tuplespace.Int(4),
	}}).Append(nil)
	if err != nil {
		return nil, err
	}
	rxn, err := (wire.ReactionMsg{PC: 6, Template: tuplespace.Tmpl(
		tuplespace.Str("fir"), tuplespace.TypeV(tuplespace.TypeLocation),
	)}).Append(nil)
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Rows: []Fig5Row{
		{"State", len(wire.StateMsg{}.Append(nil)), "program counter, code size, condition code, stack pointer"},
		{"Code", len(wire.CodeMsg{}.Append(nil)), "one instruction block"},
		{"Heap", len(heap), "four variables and their addresses"},
		{"Stack", len(stack), "four variables"},
		{"Reaction", len(rxn), "one reaction"},
	}}, nil
}

// String renders Figure 5.
func (r *Fig5Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 5 — messages used during migration\n")
	t := stats.NewTable("Type", "Size (Bytes)", "Content")
	for _, row := range r.Rows {
		t.AddRow(row.Type, row.Size, row.Content)
	}
	sb.WriteString(t.String())
	return sb.String()
}

// MemoryResult is the E6 footprint report.
type MemoryResult struct {
	Items     []core.MemoryItem
	Total     int
	PaperData int
	PaperCode int
}

// Memory reports the modelled SRAM decomposition against the paper's
// abstract ("consumes a mere 41.6KB of code and 3.59KB of data memory").
func Memory() *MemoryResult {
	return &MemoryResult{
		Items:     core.MemoryBudget(core.Config{}),
		Total:     core.MemoryTotal(core.Config{}),
		PaperData: core.PaperDataBytes,
		PaperCode: core.PaperCodeBytes,
	}
}

// String renders the budget.
func (r *MemoryResult) String() string {
	var sb strings.Builder
	sb.WriteString("E6 — data memory (SRAM) budget of one mote\n")
	t := stats.NewTable("Component", "Bytes")
	for _, it := range r.Items {
		t.AddRow(it.Component, it.Bytes)
	}
	t.AddRow("TOTAL", r.Total)
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "\npaper: %.2fKB data (modelled total %.2fKB), %.1fKB code (nesC flash image; no Go analogue)\n",
		float64(r.PaperData)/1024*1.024, float64(r.Total)/1000, float64(r.PaperCode)/1000)
	return sb.String()
}

// SpeedResult is the E7 maximum-migration-rate report.
type SpeedResult struct {
	Roundtrips int
	PerHop     time.Duration
	// SpeedKmh assumes the paper's 50 m radio range.
	SpeedKmh float64
}

// Speed measures back-to-back one-hop migration (E7): an agent ping-pongs
// between two adjacent motes on a clean channel; the per-hop period bounds
// how fast an agent can chase a moving phenomenon. §4: "the quickest an
// agent can migrate is once every 0.3 seconds ... an agent can migrate
// across a network at 600km/h".
func Speed(cfg Config) (*SpeedResult, error) {
	cfg = cfg.withDefaults()
	trips := 20
	if cfg.Quick {
		trips = 5
	}
	d, err := newTestbed(cfg.Seed, core.Config{}, nil)
	if err != nil {
		return nil, err
	}

	// The ping-pong agent: 2 hops per round trip.
	src := d.Node(topology.Loc(1, 1))
	code := agents.SmoveRoundTrip(topology.Loc(2, 1), src.Loc())
	start := d.Sim.Now()
	for i := 0; i < trips; i++ {
		if _, err := runAgent(d, src, src.Loc(), code, func() bool { return d.TotalAgents() == 0 }, 30*time.Second); err != nil {
			return nil, err
		}
	}
	elapsed := d.Sim.Now() - start

	perHop := elapsed / time.Duration(2*trips)
	// 50 m per hop (§4 assumes ~50 m radio range).
	speedKmh := 0.05 / perHop.Hours()
	return &SpeedResult{Roundtrips: trips, PerHop: perHop, SpeedKmh: speedKmh}, nil
}

// String renders the speed bound.
func (r *SpeedResult) String() string {
	return fmt.Sprintf(
		"E7 — maximum migration rate\n"+
			"round trips      %d\n"+
			"per-hop period   %.0fms (paper: ~300ms)\n"+
			"tracking speed   %.0fkm/h at 50m range (paper: ~600km/h)\n",
		r.Roundtrips, float64(r.PerHop)/float64(time.Millisecond), r.SpeedKmh)
}
