package core

import (
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/network"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/wire"
)

// runQuiescenceWorkload runs a replicated grid with no churn: tuples are
// outed once at the start, gossip converges, and then the deployment sits
// idle so the digest-suppression path dominates. Returns the aggregate
// stats and the total energy drained.
func runQuiescenceWorkload(t *testing.T, quiescentEvery int) (NodeStats, float64) {
	t.Helper()
	energy := DefaultEnergyModel()
	energy.CapacityJ = 2.0
	d, err := NewDeployment(DeploymentSpec{
		Layout:  topology.GridLayout(3, 3),
		Seed:    11,
		Workers: 1,
		Energy:  &energy,
		Replication: &Replication{
			K:              2,
			Period:         500 * time.Millisecond,
			QuiescentEvery: quiescentEvery,
		},
	})
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	if err := d.WarmUp(); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	start := d.Sim.Now()
	for i, loc := range d.Locations() {
		if err := d.Node(loc).TSOut(tuplespace.T(tuplespace.Str("qv"), tuplespace.Int(int16(i)))); err != nil {
			t.Fatalf("out at %v: %v", loc, err)
		}
	}
	if err := d.Sim.Run(start + 30*time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	return d.TotalStats(), d.EnergyUsedJ()
}

// TestGossipQuiescence checks the digest-suppression optimization: once
// the replica stores stop changing, most gossip ticks send nothing, and
// the saved airtime shows up as an energy drop against a configuration
// that transmits every tick (QuiescentEvery: 1 disables suppression).
func TestGossipQuiescence(t *testing.T) {
	quiet, quietJ := runQuiescenceWorkload(t, 0) // default: keepalive every 8th tick
	noisy, noisyJ := runQuiescenceWorkload(t, 1) // suppression disabled

	if quiet.TuplesReplicated == 0 || noisy.TuplesReplicated == 0 {
		t.Fatalf("gossip never converged: quiet=%+v noisy=%+v", quiet, noisy)
	}
	if quiet.DigestsSent == 0 {
		t.Errorf("suppressing config sent no digests at all — keepalives missing: %+v", quiet)
	}
	if quiet.DigestsSuppressed == 0 {
		t.Errorf("idle deployment suppressed no digests: %+v", quiet)
	}
	if noisy.DigestsSuppressed != 0 {
		t.Errorf("QuiescentEvery=1 should disable suppression, got %d suppressed", noisy.DigestsSuppressed)
	}
	if quiet.DigestsSent >= noisy.DigestsSent {
		t.Errorf("suppression did not reduce digest traffic: %d sent vs %d without suppression",
			quiet.DigestsSent, noisy.DigestsSent)
	}
	if quietJ >= noisyJ {
		t.Errorf("suppression did not reduce idle-gossip energy: %.6f J vs %.6f J", quietJ, noisyJ)
	}
}

// TestGossipQuiescenceRearms checks that a quiescent store wakes up when
// new data arrives: a tuple outed long after convergence still spreads,
// because the insertion marks the store dirty and the next tick transmits.
func TestGossipQuiescenceRearms(t *testing.T) {
	d, err := NewDeployment(DeploymentSpec{
		Layout:      topology.GridLayout(3, 3),
		Seed:        23,
		Workers:     1,
		Replication: &Replication{K: 2, Period: 500 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	if err := d.WarmUp(); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	start := d.Sim.Now()
	if err := d.Node(topology.Loc(1, 1)).TSOut(tuplespace.T(tuplespace.Str("seed"))); err != nil {
		t.Fatalf("out: %v", err)
	}
	// Let gossip converge and go quiescent.
	if err := d.Sim.Run(start + 15*time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	settled := d.TotalStats()
	if settled.DigestsSuppressed == 0 {
		t.Fatalf("deployment never went quiescent: %+v", settled)
	}

	// New activity must re-arm the gossip chain.
	if err := d.Node(topology.Loc(3, 3)).TSOut(tuplespace.T(tuplespace.Str("late"))); err != nil {
		t.Fatalf("out: %v", err)
	}
	if err := d.Sim.Run(start + 25*time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	after := d.TotalStats()
	if after.TuplesReplicated <= settled.TuplesReplicated {
		t.Errorf("late tuple did not replicate: %d entries before, %d after",
			settled.TuplesReplicated, after.TuplesReplicated)
	}
}

// TestKeepaliveDigestAllocatesNothing pins the cost of the common case: a
// converged neighbor's keepalive digest equals the receiver's own, calls
// for neither a delta nor a reply, and is handled on the stack.
func TestKeepaliveDigestAllocatesNothing(t *testing.T) {
	d, err := NewDeployment(DeploymentSpec{
		Layout:      topology.GridLayout(3, 3),
		Seed:        23,
		Workers:     1,
		Replication: &Replication{K: 2, Period: 500 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	if err := d.WarmUp(); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	for i, loc := range d.Locations() {
		if err := d.Node(loc).TSOut(tuplespace.T(tuplespace.Str("kv"), tuplespace.Int(int16(i)))); err != nil {
			t.Fatalf("out at %v: %v", loc, err)
		}
	}
	if err := d.Sim.Run(d.Sim.Now() + 15*time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	n := d.Node(topology.Loc(2, 2))
	own := n.repl.set.Digest()
	if len(own) != len(d.Locations()) {
		t.Fatalf("store knows %d origins of %d: gossip never converged", len(own), len(d.Locations()))
	}
	f := radio.Frame{Src: topology.Loc(1, 2), Dst: n.loc, Kind: radio.KindReplicaDigest,
		Payload: wire.ReplicaDigest{Lines: own}.Encode()}
	sent := n.net.Stats()
	if allocs := testing.AllocsPerRun(100, func() { n.recvReplicaDigest(f) }); allocs != 0 {
		t.Errorf("receiving a digest equal to our own: %v allocations, want 0", allocs)
	}
	if n.net.Stats() != sent {
		t.Errorf("an agreeing digest was answered: network stats %+v, were %+v", n.net.Stats(), sent)
	}
}

// TestGossipRoundAllocatesNothing pins a warm anti-entropy round end to
// end: a digest reaches a mote, which answers with a delta encoded into
// its shard's scratch; the radio carries the delta in a pooled delivery;
// and the peer decodes it into scratch and merges an entry it
// already holds.
func TestGossipRoundAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	params := radio.ZeroLoss()
	d, err := NewDeployment(DeploymentSpec{
		Layout: topology.GridLayout(2, 1), Seed: 23, Workers: 1, Radio: &params,
		// No beacon or gossip tick fires during the pinned rounds.
		Node:        Config{Network: network.Config{BeaconEvery: time.Hour, ExpireAfter: 10 * time.Hour}},
		Replication: &Replication{Period: time.Hour},
	})
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	if err := d.WarmUp(); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	a, b := d.Node(topology.Loc(1, 1)), d.Node(topology.Loc(2, 1))
	if err := a.TSOut(tuplespace.T(tuplespace.Str("gv"), tuplespace.Int(7))); err != nil {
		t.Fatalf("out: %v", err)
	}
	// An empty reply digest from b: a answers with everything it holds and
	// expects no digest back.
	digest := radio.Frame{Src: b.Loc(), Dst: a.Loc(), Kind: radio.KindReplicaDigest,
		Payload: wire.ReplicaDigest{Reply: true}.Encode()}
	round := func() {
		a.ReceiveFrame(digest)
		if err := d.Sim.Run(d.Sim.Now() + 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	round() // b learns the tuple: the one merge that stores
	if got := b.Stats().TuplesReplicated; got != 1 {
		t.Fatalf("b replicated %d tuples after the first round, want 1", got)
	}
	delivered := d.Medium.Stats().Delivered
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("a gossip round merging a known entry allocates %.1f objects, want 0", avg)
	}
	// AllocsPerRun makes one warm-up call of its own: 101 rounds in all.
	if got := d.Medium.Stats().Delivered - delivered; got != 101 {
		t.Fatalf("%d deltas delivered in 101 rounds", got)
	}
	if got := b.Stats().TuplesReplicated; got != 1 {
		t.Fatalf("b replicated %d tuples after the rounds, want still 1", got)
	}
}
