package agilla_test

// One benchmark per paper artifact. Each b.N iteration regenerates the
// experiment at reduced trial counts (the full-trial harness is
// cmd/agilla-bench); ns/op therefore measures the wall-clock cost of one
// complete experiment regeneration.
//
//	go test -bench=. -benchmem

import (
	"testing"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/internal/experiments"
)

func benchCfg(seed int64) experiments.Config {
	return experiments.Config{Trials: 10, Seed: seed, Quick: true}
}

// BenchmarkFig9And10 regenerates Figures 9 and 10: reliability and latency
// of smove vs rout across 1-5 hops (E1, E2).
func BenchmarkFig9And10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9and10(benchCfg(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if r.Smove[0].Reliability.Trials == 0 {
			b.Fatal("no trials ran")
		}
	}
}

// BenchmarkFig11 regenerates Figure 11: one-hop latency of every remote
// tuple space and migration instruction (E3).
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(benchCfg(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if r.Latency["smove"].N() == 0 {
			b.Fatal("no smove samples")
		}
	}
}

// BenchmarkFig12 regenerates Figure 12: local instruction latency classes
// (E4).
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(benchCfg(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) != len(experiments.Fig12Ops) {
			b.Fatal("missing instructions")
		}
	}
}

// BenchmarkFig5 regenerates Figure 5: the migration message sizes (E5).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5Sizes()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 5 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkMemory regenerates the E6 SRAM budget table.
func BenchmarkMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Memory(); r.Total != r.PaperData {
			b.Fatalf("budget drifted: %d", r.Total)
		}
	}
}

// BenchmarkSpeed regenerates the E7 migration-rate bound.
func BenchmarkSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Speed(benchCfg(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if r.PerHop <= 0 {
			b.Fatal("no hops measured")
		}
	}
}

// BenchmarkCaseStudy regenerates the E8 fire scenario.
func BenchmarkCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.CaseStudy(experiments.Config{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Detected {
			b.Fatal("fire not detected")
		}
	}
}

// BenchmarkMateCompare regenerates the E9 reprogramming-cost comparison.
func BenchmarkMateCompare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.MateCompare(experiments.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 4 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkAblationLossModel regenerates the burst-vs-Bernoulli ablation.
func BenchmarkAblationLossModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationLossModel(benchCfg(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRetries regenerates the retransmission-budget sweep.
func BenchmarkAblationRetries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationRetries(benchCfg(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEndToEnd regenerates the hop-by-hop vs end-to-end sweep.
func BenchmarkAblationEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEndToEnd(benchCfg(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomDiskMigration measures a complete scenario run on a
// non-grid topology: build a 16-mote random unit-disk deployment, warm it
// up, and migrate a courier agent from the base station to the mote
// farthest from it over the calibrated lossy radio. It extends the perf
// trajectory beyond the grid hot path: irregular neighbor counts change
// beacon load, and greedy routing works on real Euclidean geometry
// instead of Manhattan steps.
func BenchmarkRandomDiskMigration(b *testing.B) {
	sc := &agilla.Scenario{
		Name:    "disk-migration",
		Options: []agilla.Option{agilla.WithTopology(agilla.RandomDisk(16, 8, 2.5))},
		Play:    playFarthestCourier,
	}
	delivered := 0
	for i := 0; i < b.N; i++ {
		m, err := sc.Run(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if m.Completed {
			delivered++
		}
	}
	b.ReportMetric(float64(delivered)/float64(b.N), "delivered/op")
}
