package agilla_test

// Tests for the base-station RemoteClient: wire-op round trips, deadline
// derivation from NodeConfig, the network-wide Query, and the at-most-once
// responder contract under reply loss.

import (
	"errors"
	"testing"
	"time"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/internal/radio"
)

func reliableGrid(t *testing.T, w, h int, opts ...agilla.Option) *agilla.Network {
	t.Helper()
	nw, err := agilla.New(append([]agilla.Option{
		agilla.WithTopology(agilla.Grid(w, h)),
		agilla.WithReliableRadio(),
		agilla.WithSeed(1),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestRemoteClientRoundTrips(t *testing.T) {
	nw := reliableGrid(t, 3, 1)
	rc := nw.Remote()
	dest := agilla.Loc(3, 1)
	tmpl := agilla.Tmpl(agilla.Int(7), agilla.TypeV(2))

	// Rout inserts over the air (two hops).
	if err := rc.Rout(dest, agilla.T(agilla.Int(7), agilla.Str("ab"))); err != nil {
		t.Fatalf("Rout: %v", err)
	}
	if got := nw.Space(dest).Count(tmpl); got != 1 {
		t.Fatalf("after Rout the destination holds %d matches, want 1", got)
	}

	// Rrdp copies without removing.
	tup, ok, err := rc.Rrdp(dest, tmpl)
	if err != nil || !ok {
		t.Fatalf("Rrdp = %v, %v, %v", tup, ok, err)
	}
	if tup.Fields[1].Name() != "ab" {
		t.Fatalf("Rrdp tuple = %v", tup)
	}
	if got := nw.Space(dest).Count(tmpl); got != 1 {
		t.Fatalf("Rrdp removed the tuple (count %d)", got)
	}

	// Rinp removes and returns.
	tup, ok, err = rc.Rinp(dest, tmpl)
	if err != nil || !ok {
		t.Fatalf("Rinp = %v, %v, %v", tup, ok, err)
	}
	if got := nw.Space(dest).Count(tmpl); got != 0 {
		t.Fatalf("Rinp left %d matches behind", got)
	}

	// A second Rinp executes fine but finds nothing: ok=false, nil error.
	if _, ok, err := rc.Rinp(dest, tmpl); ok || err != nil {
		t.Fatalf("no-match Rinp = %v, %v; want false, nil", ok, err)
	}
}

func TestRemoteClientTimeoutDerivedFromConfig(t *testing.T) {
	// Shrink the remote-op timers; the client's deadline must follow.
	nw := reliableGrid(t, 2, 1, agilla.WithNodeConfig(agilla.NodeConfig{
		RemoteTimeout: 200 * time.Millisecond,
		RemoteRetries: -1, // no retransmissions
	}))
	nw.Node(agilla.Loc(2, 1)).Stop() // requests vanish
	rc := nw.Remote()

	ops := []func() error{
		func() error { return rc.Rout(agilla.Loc(2, 1), agilla.T(agilla.Int(1))) },
		func() error { _, _, err := rc.Rinp(agilla.Loc(2, 1), agilla.Tmpl(agilla.Int(1))); return err },
		func() error { _, _, err := rc.Rrdp(agilla.Loc(2, 1), agilla.Tmpl(agilla.Int(1))); return err },
	}
	for i, op := range ops {
		before := nw.Now()
		err := op()
		if !errors.Is(err, agilla.ErrRemoteTimeout) {
			t.Fatalf("op %d: err = %v, want ErrRemoteTimeout", i, err)
		}
		// With retries explicitly disabled the operation resolves at its
		// single 200 ms timeout; a looser bound would hide the budget
		// re-inflating disabled retries back to the default.
		if elapsed := nw.Now() - before; elapsed > 500*time.Millisecond {
			t.Fatalf("op %d took %v of virtual time; deadline not derived from config", i, elapsed)
		}
	}
}

func TestRemoteClientUnknownNode(t *testing.T) {
	nw := reliableGrid(t, 2, 1)
	if err := nw.Remote().Rout(agilla.Loc(9, 9), agilla.T(agilla.Int(1))); err == nil {
		t.Fatal("Rout to a location with no node must fail")
	}
}

func TestRemoteClientQueryPartialMatches(t *testing.T) {
	nw := reliableGrid(t, 2, 2)
	beacon := agilla.Tmpl(agilla.Str("hkr"))

	// Beacons on three of four motes; one of those motes then dies, so
	// the query sees matches, no-matches, and a timeout in one sweep.
	for _, loc := range []agilla.Location{agilla.Loc(1, 1), agilla.Loc(2, 1), agilla.Loc(2, 2)} {
		if err := nw.Space(loc).Out(agilla.T(agilla.Str("hkr"))); err != nil {
			t.Fatal(err)
		}
	}
	nw.Node(agilla.Loc(2, 2)).Stop()

	matches, err := nw.Remote().Query(beacon)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("Query found %d matches, want 2: %v", len(matches), matches)
	}
	// Results come back in deployment order, one per matching mote.
	if matches[0].Node != agilla.Loc(1, 1) || matches[1].Node != agilla.Loc(2, 1) {
		t.Fatalf("Query order = %v, %v", matches[0].Node, matches[1].Node)
	}
	for _, m := range matches {
		if m.Tuple.Fields[0].Name() != "hkr" {
			t.Fatalf("match tuple = %v", m.Tuple)
		}
	}

	// A template nothing matches yields an empty result, not an error.
	none, err := nw.Remote().Query(agilla.Tmpl(agilla.Str("zzz")))
	if err != nil || len(none) != 0 {
		t.Fatalf("empty Query = %v, %v", none, err)
	}
}

// TestRinpExactlyOnceUnderReplyLoss is the end-to-end acceptance check
// for the responder-side duplicate-request fix: when the reply to a
// base-station Rinp is lost and the request is retransmitted, exactly
// one tuple is removed at the destination.
func TestRinpExactlyOnceUnderReplyLoss(t *testing.T) {
	nw := reliableGrid(t, 2, 1)
	dest := agilla.Loc(2, 1)
	tmpl := agilla.Tmpl(agilla.Int(33))

	// Two identical tuples: a re-executed rinp would destroy both.
	for i := 0; i < 2; i++ {
		if err := nw.Space(dest).Out(agilla.T(agilla.Int(33))); err != nil {
			t.Fatal(err)
		}
	}

	dropped := 0
	agilla.DeploymentForTest(nw).Medium.Drop = func(f radio.Frame, _ agilla.Location) bool {
		if f.Kind == radio.KindRemoteTSR && dropped == 0 {
			dropped++
			return true
		}
		return false
	}

	tup, ok, err := nw.Remote().Rinp(dest, tmpl)
	if err != nil || !ok {
		t.Fatalf("Rinp under reply loss = %v, %v, %v", tup, ok, err)
	}
	if tup.Fields[0].A != 33 {
		t.Fatalf("Rinp returned %v", tup)
	}
	if dropped != 1 {
		t.Fatalf("dropped %d replies, want 1 (the scenario did not exercise retransmission)", dropped)
	}
	if got := nw.Space(dest).Count(tmpl); got != 1 {
		t.Fatalf("destination holds %d copies, want exactly 1 removed", 2-got)
	}
}

// TestRemoteReadShim reads one tuple back through the client's Rrdp, the
// call the removed Network.RemoteRead forwarded to.
func TestRemoteReadShim(t *testing.T) {
	nw := reliableGrid(t, 2, 1)
	if err := nw.Space(agilla.Loc(2, 1)).Out(agilla.T(agilla.Int(9))); err != nil {
		t.Fatal(err)
	}
	tup, ok, err := nw.Remote().Rrdp(agilla.Loc(2, 1), agilla.Tmpl(agilla.Int(9)))
	if err != nil || !ok || tup.Fields[0].A != 9 {
		t.Fatalf("Rrdp = %v, %v, %v", tup, ok, err)
	}
}
