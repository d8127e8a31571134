package agilla_test

import (
	"testing"
	"time"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/program"
)

// workerFingerprint runs a small deployment at the given parallelism and
// returns a digest of everything externally observable: every tuple on
// every node, every agent record, and the virtual clock.
func workerFingerprint(t *testing.T, workers int) string {
	t.Helper()
	nw, err := agilla.New(
		agilla.WithTopology(agilla.Grid(4, 4)),
		agilla.WithSeed(23),
		agilla.WithWorkers(workers),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	p, err := program.Parse("pushn hi\nloc\npushc 2\nout\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Launch(p, agilla.Loc(4, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Launch(p, agilla.Loc(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	out := nw.Now().String() + "|"
	for _, loc := range nw.Locations() {
		for _, tup := range nw.Space(loc).All() {
			out += loc.String() + tup.String() + ";"
		}
	}
	for _, ag := range nw.Agents() {
		info := ag.Info()
		out += info.Loc.String() + info.State.String() + time.Duration(info.BornAt).String() + ";"
	}
	return out
}

// TestWithWorkersMatchesSequential is the public-API face of the kernel's
// determinism guarantee: the same seed must yield byte-identical
// observable state whatever parallelism the network runs at.
func TestWithWorkersMatchesSequential(t *testing.T) {
	want := workerFingerprint(t, 1)
	for _, w := range []int{2, 4} {
		if got := workerFingerprint(t, w); got != want {
			t.Errorf("workers=%d diverged from sequential:\n got %s\nwant %s", w, got, want)
		}
	}
}

// TestScenarioWorkersMetricsIdentical pins the scenario runner: a
// time-bounded scenario must report identical metrics at any parallelism.
func TestScenarioWorkersMetricsIdentical(t *testing.T) {
	mk := func(workers int) *agilla.Scenario {
		return &agilla.Scenario{
			Name:     "workers-equivalence",
			Topology: agilla.Grid(4, 4),
			Agents: []agilla.AgentSpec{
				{Name: "greet", Program: program.MustParse("pushn hi\nloc\npushc 2\nout\nhalt"), At: agilla.Loc(4, 4)},
			},
			Duration: 15 * time.Second,
			Workers:  workers,
		}
	}
	want, err := mk(1).Run(31)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mk(3).Run(31)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("parallel scenario metrics diverged:\n got %s\nwant %s", got, want)
	}
}
