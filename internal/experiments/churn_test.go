package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestChurnDeterministicAcrossWorkers runs the quick churn sweep at 1 and
// 2 workers and requires every deterministic column identical — the same
// property the CI smoke job asserts over the JSON artifacts. It also pins
// what the replication rows must demonstrate: under the identical churn
// schedule and seed, gossip replication turns the dead motes' markers
// from unreadable to readable (remote probes and end-of-run survival).
func TestChurnDeterministicAcrossWorkers(t *testing.T) {
	res, err := Churn(Config{Seed: 7, Quick: true, Workers: 2, Replication: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 4 {
		t.Fatalf("expected replication on/off rows for workers 1 and 2, got %d", len(res.Rows))
	}
	det := func(r ChurnRow) ChurnRow {
		r.Workers, r.WallSecs, r.EventsPerSec, r.Speedup = 0, 0, 0, 0
		return r
	}
	base := map[bool]ChurnRow{}
	for _, row := range res.Rows {
		key := row.Replication
		first, seen := base[key]
		if !seen {
			base[key] = row
			continue
		}
		if row.Scenario != first.Scenario {
			continue
		}
		if det(row) != det(first) {
			t.Errorf("workers=%d repl=%v diverged:\n got %+v\nwant %+v",
				row.Workers, row.Replication, det(row), det(first))
		}
	}

	off, on := base[false], base[true]
	if off.Kills == 0 || off.Moves == 0 {
		t.Fatalf("world schedule did not apply: %+v", off)
	}
	if off.EnergyDeaths == 0 || on.EnergyDeaths == 0 {
		t.Fatalf("energy model never exhausted a battery: off=%d on=%d deaths",
			off.EnergyDeaths, on.EnergyDeaths)
	}
	if off.TuplesReplicated != 0 || off.TuplesRecovered != 0 {
		t.Errorf("baseline rows must not replicate: %+v", off)
	}
	if on.TuplesReplicated == 0 {
		t.Error("replication rows accepted no gossip entries")
	}
	if on.TuplesRecovered == 0 {
		t.Error("no tuple streamed back to a revived mote")
	}
	// Quiescent-store digest suppression must demonstrably elide gossip
	// traffic and save energy against the same run with it disabled.
	if on.DigestsSuppressed == 0 || on.SuppressionSavedJ <= 0 {
		t.Errorf("digest suppression did nothing: %d suppressed, %.3f J saved", on.DigestsSuppressed, on.SuppressionSavedJ)
	}
	// The headline comparison: same seed, same schedule — replication
	// must make dead motes' data measurably more available.
	if on.RemoteOKRate <= off.RemoteOKRate {
		t.Errorf("remote probe OK rate did not improve: off=%.2f on=%.2f",
			off.RemoteOKRate, on.RemoteOKRate)
	}
	if on.TupleSurvival <= off.TupleSurvival {
		t.Errorf("tuple survival did not improve: off=%.2f on=%.2f",
			off.TupleSurvival, on.TupleSurvival)
	}

	if s := res.String(); !strings.Contains(s, "grid 6x6") {
		t.Errorf("String() missing scenario: %q", s)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back []ChurnRow
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if len(back) != len(res.Rows) {
		t.Fatalf("JSON rows = %d, want %d", len(back), len(res.Rows))
	}
}

// TestScaleDeterministicAcrossWorkers is the scale sweep's half of the
// same CI diff: per scenario, the deterministic columns agree at 1 and 2
// workers, and every row keeps the in-place step chain's batching floor.
func TestScaleDeterministicAcrossWorkers(t *testing.T) {
	res, err := Scale(Config{Seed: 7, Quick: true, Trials: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	type det struct {
		events, instr, frames uint64
		hash                  string
	}
	base := map[string]det{}
	workers := map[int]bool{}
	for _, row := range res.Rows {
		workers[row.Workers] = true
		got := det{row.Events, row.Instr, row.Frames, row.Hash}
		if want, seen := base[row.Scenario]; !seen {
			base[row.Scenario] = got
		} else if got != want {
			t.Errorf("%s workers=%d diverged: got %+v, want %+v", row.Scenario, row.Workers, got, want)
		}
		// Below 2 instructions per dispatched event the in-place chain
		// has regressed to per-instruction scheduling.
		if row.InstrPerEvent < 2 {
			t.Errorf("%s workers=%d: %.2f instr/event, want >= 2", row.Scenario, row.Workers, row.InstrPerEvent)
		}
	}
	if len(base) < 2 || !workers[1] || !workers[2] {
		t.Fatalf("want >= 2 scenarios at workers 1 and 2, got rows %+v", res.Rows)
	}

	if s := res.String(); !strings.Contains(s, "grid 10x10") {
		t.Errorf("String() missing scenario: %q", s)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back []ScaleRow
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if len(back) != len(res.Rows) {
		t.Fatalf("JSON rows = %d, want %d", len(back), len(res.Rows))
	}
	for i := range back {
		if back[i] != res.Rows[i] {
			t.Errorf("JSON row %d = %+v, want %+v", i, back[i], res.Rows[i])
		}
	}
}
