package agilla

import (
	"runtime"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/transport"
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

// TestBridgedRunFlushesBeforeIdle pins the pump order of a bridged run:
// the border frames a quantum relays are on the wire before the idle
// hook runs, so a peer process paced by that hook can run with them. The
// peer here is a bare TCP endpoint; A's idle hook reads it until it holds
// every frame A has relayed so far.
func TestBridgedRunFlushesBeforeIdle(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets; skipped in -short")
	}
	peer := transport.NewTCP("tcp:127.0.0.1:0")
	if err := peer.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	_, bOwned := confSplit()
	a, err := New(
		WithTopology(Grid(confW, confH)),
		WithSeed(confSeed),
		WithReliableRadio(),
		WithTransportBridge(BridgeConfig{
			Listen: "tcp:127.0.0.1:0",
			Peers:  []BridgePeer{{Addr: string(peer.LocalAddr()), Locations: append(bOwned, confBBase)}},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	var got uint64
	quanta := 0
	a.idle = func(time.Duration) {
		quanta++
		want := a.Bridge().Stats().Relayed
		for deadline := time.Now().Add(5 * time.Second); got < want; runtime.Gosched() {
			if _, _, ok := peer.Recv(); ok {
				got++
			} else if time.Now().After(deadline) {
				t.Fatalf("idle hook of quantum %d: the peer holds %d of the %d frames A relayed", quanta, got, want)
			}
		}
	}
	if err := a.WarmUp(); err != nil {
		t.Fatal(err)
	}
	if got == 0 {
		t.Fatalf("A relayed nothing in %d quanta", quanta)
	}
}

// TestBridgeMoveRules pins what a mote's move means on a bridged field.
// A move onto a coordinate a peer owns is rejected: the peer's mote
// answers there. A move off the field, next to a peer-owned coordinate
// no local radio reached before, puts that coordinate in range: the
// moved mote's beacons reach the border there and cross the wire. The
// peer, whose map still has the mote at a coordinate A owns, drops them
// as spoofed.
func TestBridgeMoveRules(t *testing.T) {
	a, b := newBridgedPair(t, "loop:move-a", "loop:move-b", nil)
	from, onPeer := Loc(1, 2), Loc(6, 1)
	off, beside := Loc(confW+1, 2), Loc(confW, 2) // beside is B's, two columns from the split
	var heard int
	a.d.Medium.Trace = func(f radio.Frame, to Location, delivered bool) {
		if f.Src == off && to == beside && f.IsBroadcast() && delivered {
			heard++
		}
	}
	now := a.Now()
	a.Script(MoveAt(now+time.Millisecond, from, onPeer))
	if err := a.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if ws := a.WorldStats(); ws.Rejected != 1 || ws.Moves != 0 {
		t.Fatalf("move onto peer-owned %v: world stats %+v, want 1 rejected and no move", onPeer, ws)
	}
	relayed := a.Bridge().Stats().RelayedByKind[radio.KindBeacon]
	if sp := b.Bridge().Stats().Spoofed; sp != 0 {
		t.Fatalf("B counted %d spoofed frames before any move, want 0", sp)
	}
	a.Script(MoveAt(a.Now()+time.Millisecond, from, off))
	if err := a.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ws := a.WorldStats(); ws.Rejected != 1 || ws.Moves != 1 {
		t.Fatalf("move to off-field %v: world stats %+v, want the move applied", off, ws)
	}
	if heard == 0 {
		t.Fatalf("no beacon from the moved mote at %v reached the border port at %v", off, beside)
	}
	st := a.Bridge().Stats()
	if got := st.RelayedByKind[radio.KindBeacon] - relayed; got < uint64(heard) || st.SendErrs != 0 {
		t.Fatalf("%d beacons relayed since the move, %d send errors; want at least the %d heard at %v and none",
			got, st.SendErrs, heard, beside)
	}
	if sp := b.Bridge().Stats().Spoofed; sp == 0 {
		t.Fatalf("B injected the beacons of a mote at %v, which it knows no peer owns", off)
	}
}

// TestBridgeDeclaredMove pins a move the peer was told of: B lists the
// off-field (7,2) as A's, so once A's mote at (1,2) moves there the
// border carries it both ways. B injects the moved mote's beacons as
// from a peer-owned neighbour (none spoofed), and A injects B's beacons
// to it, where it counted them misrouted while nothing was attached at
// (7,2); the moved mote lists B's (6,2) as a neighbour.
func TestBridgeDeclaredMove(t *testing.T) {
	from, off, beside := Loc(1, 2), Loc(confW+1, 2), Loc(confW, 2)
	a, b := newBridgedPair(t, "loop:declared-a", "loop:declared-b", nil, off)
	a.Script(MoveAt(a.Now()+time.Millisecond, from, off))
	if err := a.Run(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ws := a.WorldStats(); ws.Rejected != 0 || ws.Moves != 1 {
		t.Fatalf("move to declared %v: world stats %+v, want the move applied", off, ws)
	}
	misrouted := a.Bridge().Stats().Misrouted
	if err := a.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !a.d.Node(off).Net().Acquaintances().Contains(beside) {
		t.Fatalf("the mote moved to %v hears %v, not B's %v",
			off, a.d.Node(off).Net().Acquaintances().Neighbors(), beside)
	}
	if st := a.Bridge().Stats(); st.Misrouted != misrouted || st.Injected == 0 {
		t.Fatalf("A's bridge stats after the move %+v: misrouted grew from %d, or nothing was injected", st, misrouted)
	}
	if sp := b.Bridge().Stats().Spoofed; sp != 0 {
		t.Fatalf("B counted %d spoofed frames from a mote it lists as A's, want 0", sp)
	}
}
