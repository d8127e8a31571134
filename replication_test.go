package agilla_test

// Replication property tests: the end-to-end contracts of the gossip
// CRDT layer (README "Replication") exercised through the public API
// only — Out/Inp through Space, kills through the world API, and
// readability through the base station's wire protocol, so "readable
// somewhere" means what a deployed user would observe, not what an
// internal store claims.

import (
	"testing"
	"time"

	"github.com/agilla-go/agilla"
)

// TestReplicationSurvivesChurn pins the two safety properties of the
// replicated tuple space under kill+revive churn with k >= 2:
//
//  1. Liveness of adds: every tuple Out before a crash is readable
//     somewhere (origin arena or any replica, via a network-wide Query)
//     once gossip quiesces — while the origin is down and after it
//     revives, when its own tuples must be streamed back.
//  2. Permanence of removes: a tuple consumed by Inp before the crash is
//     tombstoned and never resurrects, not even when its origin reboots
//     and is re-seeded from neighbors that still hold stale replicas.
func TestReplicationSurvivesChurn(t *testing.T) {
	nw, err := agilla.New(
		agilla.WithTopology(agilla.Grid(4, 4)),
		agilla.WithReliableRadio(),
		agilla.WithSeed(11),
		agilla.WithReplication(2, 300*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := nw.Replication()
	if cfg == nil || cfg.K != 2 || cfg.MaxEntries == 0 {
		t.Fatalf("Replication() = %+v, want K=2 with defaults resolved", cfg)
	}
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}

	// Every mote publishes one marker; the victim additionally publishes a
	// keeper that must outlive its crash.
	locs := nw.Locations()
	victimIdx := 5
	victim := locs[victimIdx]
	for i, loc := range locs {
		if err := nw.Space(loc).Out(agilla.T(agilla.Str("sv"), agilla.Int(int16(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Space(victim).Out(agilla.T(agilla.Str("kp"), agilla.Int(int16(victimIdx)))); err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(3 * time.Second); err != nil {
		t.Fatal(err) // let gossip spread the adds
	}

	// Consume the victim's marker over the air: the Inp tombstones it in
	// the CRDT, and the tombstone gossips outward.
	tomb := agilla.Tmpl(agilla.Str("sv"), agilla.Int(int16(victimIdx)))
	if _, ok, err := nw.Remote().Rinp(victim, tomb); err != nil || !ok {
		t.Fatalf("Rinp(victim marker) = %v, %v", ok, err)
	}
	if err := nw.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := nw.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	query := func(p agilla.Template) int {
		matches, err := nw.Remote().Query(p)
		if err != nil {
			t.Fatal(err)
		}
		return len(matches)
	}

	// While the origin is down, its keeper lives on in replicas...
	if n := query(agilla.Tmpl(agilla.Str("kp"), agilla.Int(int16(victimIdx)))); n == 0 {
		t.Fatal("victim's keeper unreadable while victim is down")
	}
	// ...and the tombstoned marker is gone network-wide.
	if n := query(tomb); n != 0 {
		t.Fatalf("tombstoned marker readable at %d motes while victim is down", n)
	}

	if err := nw.Revive(victim); err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(6 * time.Second); err != nil {
		t.Fatal(err) // boot + anti-entropy back-fill
	}

	// Every marker Out before the crash (minus the consumed one) is
	// readable somewhere after quiescence.
	for i := range locs {
		p := agilla.Tmpl(agilla.Str("sv"), agilla.Int(int16(i)))
		want := i != victimIdx
		if got := query(p) > 0; got != want {
			t.Errorf("marker %d readable=%v, want %v", i, got, want)
		}
	}
	// The keeper came home: the revived victim's own arena holds it again
	// (streamed back by neighbors), not just some replica.
	kp := agilla.Tmpl(agilla.Str("kp"), agilla.Int(int16(victimIdx)))
	if n := nw.Space(victim).Count(kp); n != 1 {
		t.Errorf("revived victim holds %d keepers, want 1 (recovery did not stream it back)", n)
	}
	// And the tombstone held through the reboot: no resurrection.
	if n := query(tomb); n != 0 {
		t.Errorf("tombstoned marker resurrected at %d motes after revival", n)
	}
	if nw.Space(victim).Count(tomb) != 0 {
		t.Error("tombstoned marker back in the revived origin's arena")
	}
}

// TestQueryAnswersFromEveryReplica: gossip replicates a tuple to every
// mote, and any mote answers a remote rrdp from its replica store — so
// once gossip quiesces, Query's "at most one Match per mote" is exactly
// one Match from each live mote, for a keyed template like any other.
func TestQueryAnswersFromEveryReplica(t *testing.T) {
	nw, err := agilla.New(
		agilla.WithTopology(agilla.Grid(4, 4)),
		agilla.WithReliableRadio(),
		agilla.WithSeed(11),
		agilla.WithReplication(2, 300*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	if err := nw.Space(agilla.Loc(2, 3)).Out(agilla.T(agilla.Str("kp"), agilla.Int(5))); err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(10 * time.Second); err != nil {
		t.Fatal(err) // let gossip carry the add to every store
	}
	down := agilla.Loc(4, 4)
	if err := nw.Kill(down); err != nil {
		t.Fatal(err)
	}
	matches, err := nw.Remote().Query(agilla.Tmpl(agilla.Str("kp"), agilla.Int(5)))
	if err != nil {
		t.Fatal(err)
	}
	var want []agilla.Location
	for _, loc := range nw.Locations() {
		if loc != down {
			want = append(want, loc)
		}
	}
	if len(matches) != len(want) {
		t.Fatalf("Query matched %d motes, want all %d live ones: %v", len(matches), len(want), matches)
	}
	for i, m := range matches {
		if m.Node != want[i] {
			t.Fatalf("match %d from %v, want %v (deployment order)", i, m.Node, want[i])
		}
	}
}
