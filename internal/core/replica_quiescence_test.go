package core

import (
	"testing"
	"time"

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
