package agilla

// The bridge conformance suite: the same seeded scenario runs once in a
// single process (the deterministic oracle) and once split across two
// bridged half-networks in this test process, joined by the in-memory
// Loopback transport and co-driven in quantum lockstep. The two runs must
// agree on outcomes — where agents arrive, what remote operations return,
// and what every mote's tuple space holds at the end — though not on
// event timing: a bridged run advances its halves in alternating quanta,
// so arrival instants may differ by a few quanta from the oracle's. That
// is the contract WithTransportBridge documents, and this suite is what
// holds the bridge to it.

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/network"
	"github.com/agilla-go/agilla/program"
)

// courierSrc stamps <"vst", here> at its destination and halts — arrival
// leaves permanent evidence in the destination's tuple space.
const courierSrc = "pushn vst\nloc\npushc 2\nout\nhalt"

// confField is the shared topology of the conformance scenario: a 6x4
// grid split down the middle, columns 1-3 in process A (with the default
// base at (0,0)), columns 4-6 in process B (base relocated off-field).
const (
	confW, confH = 6, 4
	confSeed     = 11
)

var confBBase = Loc(100, 100)

func confSplit() (aOwned, bOwned []Location) {
	for y := int16(1); y <= confH; y++ {
		for x := int16(1); x <= confW; x++ {
			if x <= confW/2 {
				aOwned = append(aOwned, Loc(x, y))
			} else {
				bOwned = append(bOwned, Loc(x, y))
			}
		}
	}
	return
}

// newBridgedPair builds the two half-networks over the given transport
// addresses and wires A's idle hook to co-drive B, so driving A (WarmUp,
// Run, RemoteClient calls) advances both halves in lockstep quanta. All
// workload initiation goes through A; B follows. B's peer entry for A
// lists alsoA beside A's columns and base.
func newBridgedPair(t *testing.T, addrA, addrB string, idleExtra func(), alsoA ...Location) (a, b *Network) {
	t.Helper()
	aOwned, bOwned := confSplit()
	var err error
	a, err = New(
		WithTopology(Grid(confW, confH)),
		WithSeed(confSeed),
		WithReliableRadio(),
		WithTransportBridge(BridgeConfig{
			Listen: addrA,
			Peers:  []BridgePeer{{Addr: addrB, Locations: append(bOwned, confBBase)}},
		}),
	)
	if err != nil {
		t.Fatalf("half A: %v", err)
	}
	b, err = New(
		WithTopology(Grid(confW, confH)),
		WithSeed(confSeed),
		WithReliableRadio(),
		WithTransportBridge(BridgeConfig{
			Listen:  addrB,
			BaseLoc: &confBBase,
			Peers:   []BridgePeer{{Addr: addrA, Locations: append(append(aOwned, Loc(0, 0)), alsoA...)}},
		}),
	)
	if err != nil {
		a.Close()
		t.Fatalf("half B: %v", err)
	}
	// Replace A's wall-clock pacing with co-driving B: each of A's pump
	// quanta is followed by one of B's, keeping the two virtual clocks
	// within a quantum of each other without any real-time coupling.
	a.idle = func(step time.Duration) {
		if err := b.stepBridged(step); err != nil {
			t.Errorf("co-driving half B: %v", err)
		}
		if idleExtra != nil {
			idleExtra()
		}
	}
	b.idle = nil // B is only ever driven through A's hook
	t.Cleanup(func() { b.Close() })
	t.Cleanup(func() { a.Close() })
	// WarmUp through A starts A's beacons and pumps both borders; B's
	// beacons need its own Start, which WarmUp would otherwise do.
	b.d.Start()
	if err := a.WarmUp(); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// confOutcome is everything the scenario observes; oracle and bridged
// runs must produce equal outcomes.
type confOutcome struct {
	courierTuple string   // the <"vst", loc> stamp found at the courier's destination
	rrdpFar      string   // rrdp result from the far (B-owned) mote
	rinpFar      string   // rinp result from the far mote
	rrdpNear     string   // rrdp result from a near (A-owned) mote
	spaces       []string // "loc: sorted tuples" for every mote with tuples
}

func renderTuple(tp Tuple, ok bool) string {
	if !ok {
		return "<none>"
	}
	return fmt.Sprint(tp)
}

// ownerOf returns the network holding loc's node in a bridged pair.
func ownerOf(a, b *Network, loc Location) *Network {
	if a.bridgeOwns(loc) {
		return b
	}
	return a
}

// playConformance runs the shared workload. drive is the initiating
// network (the oracle itself, or half A of a bridged pair); lookup
// resolves which network hosts a location's node for state reads (the
// identity for the oracle).
func playConformance(t *testing.T, drive *Network, lookup func(Location) *Network) confOutcome {
	t.Helper()
	var out confOutcome
	farDest := Loc(confW, confH) // deep in B's half
	farMote := Loc(5, 2)         // B-owned
	nearMote := Loc(2, 2)        // A-owned

	// A courier agent migrates hop by hop from A's base across the border.
	courier := program.MustParse(courierSrc).WithName("courier")
	if _, err := drive.Launch(courier, farDest); err != nil {
		t.Fatal(err)
	}
	stamped := Tmpl(Str("vst"), TypeV(3))
	arrived, err := drive.RunUntil(func() bool {
		return lookup(farDest).Space(farDest).Count(stamped) > 0
	}, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !arrived {
		t.Fatalf("courier never stamped %v", farDest)
	}
	tp, ok := lookup(farDest).Space(farDest).Rdp(stamped)
	out.courierTuple = renderTuple(tp, ok)

	// Remote tuple space operations from the base: two inserts and a
	// removal on a far mote across the border, a read-back, and a near
	// control case that never touches the wire.
	rc := drive.Remote()
	if err := rc.Rout(farMote, T(Str("cfg"), Int(1))); err != nil {
		t.Fatalf("rout #1 to %v: %v", farMote, err)
	}
	if err := rc.Rout(farMote, T(Str("cfg"), Int(2))); err != nil {
		t.Fatalf("rout #2 to %v: %v", farMote, err)
	}
	if err := rc.Rout(nearMote, T(Str("cfg"), Int(3))); err != nil {
		t.Fatalf("rout to %v: %v", nearMote, err)
	}
	tp, ok, err = rc.Rrdp(farMote, Tmpl(Str("cfg"), TypeV(1)))
	if err != nil {
		t.Fatalf("rrdp %v: %v", farMote, err)
	}
	out.rrdpFar = renderTuple(tp, ok)
	tp, ok, err = rc.Rinp(farMote, Tmpl(Str("cfg"), Int(1)))
	if err != nil {
		t.Fatalf("rinp %v: %v", farMote, err)
	}
	out.rinpFar = renderTuple(tp, ok)
	tp, ok, err = rc.Rrdp(nearMote, Tmpl(Str("cfg"), TypeV(1)))
	if err != nil {
		t.Fatalf("rrdp %v: %v", nearMote, err)
	}
	out.rrdpNear = renderTuple(tp, ok)

	// Let in-flight traffic quiesce, then capture every mote's tuple
	// space as an order-independent snapshot (the eventual state, not the
	// event schedule, is what a bridged run reproduces).
	if err := drive.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for y := int16(1); y <= confH; y++ {
		for x := int16(1); x <= confW; x++ {
			loc := Loc(x, y)
			tuples := lookup(loc).Space(loc).All()
			if len(tuples) == 0 {
				continue
			}
			rows := make([]string, len(tuples))
			for i, tp := range tuples {
				rows[i] = fmt.Sprint(tp)
			}
			sort.Strings(rows)
			out.spaces = append(out.spaces, fmt.Sprintf("%v: %v", loc, rows))
		}
	}
	return out
}

// TestBridgeConformanceLoopback is the tentpole conformance check: one
// seeded scenario, run single-process and run split over the Loopback
// transport, must agree on agent arrival, remote-op results, and final
// tuple-space contents.
func TestBridgeConformanceLoopback(t *testing.T) {
	oracle, err := New(
		WithTopology(Grid(confW, confH)),
		WithSeed(confSeed),
		WithReliableRadio(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	if err := oracle.WarmUp(); err != nil {
		t.Fatal(err)
	}
	want := playConformance(t, oracle, func(Location) *Network { return oracle })

	a, b := newBridgedPair(t, "loop:conf-a", "loop:conf-b", nil)
	got := playConformance(t, a, func(loc Location) *Network { return ownerOf(a, b, loc) })

	if got.courierTuple != want.courierTuple {
		t.Errorf("courier stamp: bridged %s, oracle %s", got.courierTuple, want.courierTuple)
	}
	if got.rrdpFar != want.rrdpFar {
		t.Errorf("far rrdp: bridged %s, oracle %s", got.rrdpFar, want.rrdpFar)
	}
	if got.rinpFar != want.rinpFar {
		t.Errorf("far rinp: bridged %s, oracle %s", got.rinpFar, want.rinpFar)
	}
	if got.rrdpNear != want.rrdpNear {
		t.Errorf("near rrdp: bridged %s, oracle %s", got.rrdpNear, want.rrdpNear)
	}
	if fmt.Sprint(got.spaces) != fmt.Sprint(want.spaces) {
		t.Errorf("final tuple spaces diverge:\nbridged: %v\noracle:  %v", got.spaces, want.spaces)
	}

	// The workload genuinely crossed the wire, in both directions.
	for name, nw := range map[string]*Network{"A": a, "B": b} {
		st := nw.Bridge().Stats()
		if st.Relayed == 0 || st.Injected == 0 {
			t.Errorf("half %s border stats %+v: want traffic both ways", name, st)
		}
		if st.Misrouted != 0 || st.Spoofed != 0 {
			t.Errorf("half %s misrouted %d frames, spoofed %d", name, st.Misrouted, st.Spoofed)
		}
	}
}

// TestBridgeConformanceUDP is the real-socket smoke test: the same split
// scenario over localhost UDP, co-driven with a short wall-clock grace
// per quantum so datagrams in flight land. Run under -race in CI. The
// assertions are outcome-level only — UDP delivery order is not
// reproducible and the radio is reliable but the wire could in principle
// drop, so the protocol retransmission layers are part of what is being
// smoked here.
func TestBridgeConformanceUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets; skipped in -short")
	}
	playSocketConformance(t, "udp:127.0.0.1:39701", "udp:127.0.0.1:39702")
}

// TestBridgeConformanceTCP runs the same split scenario over the
// localhost TCP stream transport: same outcome-level assertions, plus
// the stream's losslessness means nothing here leans on retransmission.
func TestBridgeConformanceTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets; skipped in -short")
	}
	playSocketConformance(t, "tcp:127.0.0.1:39703", "tcp:127.0.0.1:39704")
}

// playSocketConformance runs the split scenario over a real-socket
// transport pair and asserts outcomes, two-way border traffic, and that
// the wire path actually batched.
func playSocketConformance(t *testing.T, addrA, addrB string) {
	t.Helper()
	a, b := newBridgedPair(t, addrA, addrB,
		func() { time.Sleep(50 * time.Microsecond) })
	got := playConformance(t, a, func(loc Location) *Network { return ownerOf(a, b, loc) })

	if got.courierTuple == "<none>" {
		t.Error("courier left no stamp at its destination")
	}
	if got.rrdpFar == "<none>" || got.rinpFar == "<none>" {
		t.Errorf("far-mote remote ops failed over the wire: rrdp=%s rinp=%s", got.rrdpFar, got.rinpFar)
	}
	if got.rrdpNear == "<none>" {
		t.Errorf("near-mote remote op failed: %s", got.rrdpNear)
	}
	for name, nw := range map[string]*Network{"A": a, "B": b} {
		st := nw.Bridge().Stats()
		if st.Relayed == 0 || st.Injected == 0 {
			t.Errorf("half %s border stats %+v: want traffic both ways", name, st)
		}
		var batches, sent uint64
		for _, ps := range nw.Bridge().TransportStats() {
			batches += ps.Batches
			sent += ps.Sent
		}
		if sent > 0 && batches == 0 {
			t.Errorf("half %s sent %d frames in 0 batches: coalescer bypassed", name, sent)
		}
	}
}

// TestWarmUpSpanBridgedMatchesUnbridged pins the one warm-up rule: two and
// a half of the configured beacon periods, whether the run is pumped in
// bridge quanta or not.
func TestWarmUpSpanBridgedMatchesUnbridged(t *testing.T) {
	const beacon = 800 * time.Millisecond
	_, bOwned := confSplit()
	opts := []Option{
		WithTopology(Grid(confW, confH)),
		WithSeed(confSeed),
		WithNodeConfig(NodeConfig{Network: network.Config{BeaconEvery: beacon}}),
	}
	plain, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	bridged, err := New(append(opts, WithTransportBridge(BridgeConfig{
		Listen: "loop:warmup-span",
		Peers:  []BridgePeer{{Addr: "loop:warmup-span-peer", Locations: bOwned}},
	}))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bridged.Close() })
	bridged.idle = nil // no peer to keep pace with: skip the wall-clock sleeps
	for name, nw := range map[string]*Network{"unbridged": plain, "bridged": bridged} {
		if err := nw.WarmUp(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := nw.Now(), 2*beacon+beacon/2; got != want {
			t.Errorf("%s warmed up for %v, want %v", name, got, want)
		}
	}
}
