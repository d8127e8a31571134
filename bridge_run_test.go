package agilla

import (
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/program"
)

// newLoneBridged builds the A half of the conformance split with no peer
// process behind its border: the transport is the in-memory Loopback, so
// nothing ever arrives, and the run loop stays the bridged one.
func newLoneBridged(t *testing.T, name string) *Network {
	t.Helper()
	_, bOwned := confSplit()
	nw, err := New(
		WithTopology(Grid(confW, confH)),
		WithSeed(confSeed),
		WithTransportBridge(BridgeConfig{
			Listen: "loop:" + name,
			Peers:  []BridgePeer{{Addr: "loop:" + name + "-peer", Locations: bOwned}},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nw.Close() })
	return nw
}

// TestBridgedRunOverEmptyQueueReturns pins that a bridged run over a
// drained queue returns the way an unbridged one does, with the clock
// resting at the last event, instead of pumping forever at a clock that
// never moves. The run goes in a goroutine so a hang fails the test.
func TestBridgedRunOverEmptyQueueReturns(t *testing.T) {
	plain, err := New(WithTopology(Grid(confW, confH)), WithSeed(confSeed))
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	nw := newLoneBridged(t, "empty-queue")
	done := make(chan error, 1)
	go func() { done <- nw.Run(500 * time.Millisecond) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("bridged Run over an empty queue did not return within 10s")
	}
	if got, want := nw.Now(), plain.Now(); got != want {
		t.Fatalf("bridged run rests at %v, unbridged at %v", got, want)
	}
}

// TestBridgedRunChainsStepsInPlace pins that a bridged run with no
// predicate drives each quantum with Run, whose horizon lets an engine's
// step chain run in place: some instructions must execute without a
// heap round trip of their own.
func TestBridgedRunChainsStepsInPlace(t *testing.T) {
	nw := newLoneBridged(t, "in-place")
	nw.idle = nil // no peer to keep pace with: skip the wall-clock sleeps
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	monitor := program.MustParse(agents.MonitorSrc(2)).WithName("monitor")
	for _, at := range []Location{Loc(1, 1), Loc(2, 2), Loc(3, 3)} {
		if _, err := nw.Launch(monitor, at); err != nil {
			t.Fatal(err)
		}
	}
	sim := nw.d.Sim
	executed, dispatched := sim.Executed(), sim.Dispatched()
	if err := nw.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	executed, dispatched = sim.Executed()-executed, sim.Dispatched()-dispatched
	if executed <= dispatched {
		t.Fatalf("bridged Run executed %d events in %d dispatches: no step ran in place", executed, dispatched)
	}
}
