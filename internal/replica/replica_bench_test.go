package replica

import (
	"testing"

	"github.com/agilla-go/agilla/internal/topology"
)

// The benchmarks use the churn-repl census (bench/probes.go): 14×14 = 196
// origins each publishing one marker, into stores capped at 128 entries.
const (
	censusOrigins = 196
	censusEntries = 128
	censusDelta   = 16 // core's per-frame delta cap
)

func censusOrigin(i int) Origin {
	i %= censusOrigins
	return Origin{Node: topology.Loc(int16(1+i%14), int16(1+i/14)), Seq: 1}
}

// censusSet holds the markers of origins [from, from+censusEntries).
func censusSet(from int) *Set {
	s := NewSet(censusEntries)
	for i := from; i < from+censusEntries; i++ {
		s.Add(censusOrigin(i), tup(int16(i%censusOrigins)))
	}
	return s
}

var (
	sinkDigest  []Summary
	sinkEntries []Entry
)

func BenchmarkDigest(b *testing.B) {
	s := censusSet(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDigest = s.Digest()
	}
}

// BenchmarkDeltaFor: the delta for a peer whose store overlaps ours by 60
// of 128 origins.
func BenchmarkDeltaFor(b *testing.B) {
	s, peer := censusSet(0), censusSet(censusOrigins-censusEntries).Digest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkEntries = s.DeltaFor(peer, censusDelta)
	}
}

// BenchmarkMerge: one capped delta of new entries merged into a store
// rebuilt (off the clock) for every iteration.
func BenchmarkMerge(b *testing.B) {
	delta := make([]Entry, 0, censusDelta)
	for i := censusEntries - censusDelta; i < censusEntries; i++ {
		delta = append(delta, Entry{Origin: censusOrigin(i), Tuple: tup(int16(i))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewSet(censusEntries)
		for k := 0; k < censusEntries-censusDelta; k++ {
			s.Add(censusOrigin(k), tup(int16(k)))
		}
		b.StartTimer()
		if added, _ := s.Merge(delta); added != censusDelta {
			b.Fatal("delta not applied")
		}
	}
}
