package network

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/wire"
)

// testNet builds a grid of stacks over a zero-loss medium.
func testNet(t *testing.T, w, h int, cfg Config) (*sim.Parallel, *radio.Medium, map[topology.Location]*Stack) {
	t.Helper()
	s := sim.New(42)
	m := radio.NewMedium(s, topology.Grid{}, radio.ZeroLoss())
	stacks := make(map[topology.Location]*Stack)
	for _, loc := range topology.GridLocations(w, h) {
		st := NewStack(s.Context(sim.Key2D(loc.X, loc.Y)), m, loc, cfg)
		if err := m.Attach(loc, receiverFunc(st.HandleFrame)); err != nil {
			t.Fatalf("attach %v: %v", loc, err)
		}
		stacks[loc] = st
	}
	return s, m, stacks
}

type receiverFunc func(radio.Frame)

func (f receiverFunc) ReceiveFrame(fr radio.Frame) { f(fr) }

func startAll(stacks map[topology.Location]*Stack) {
	for _, st := range stacks {
		st.Start()
	}
}

func TestBeaconDiscovery(t *testing.T) {
	s, _, stacks := testNet(t, 3, 3, Config{})
	startAll(stacks)
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}

	// Center node (2,2) has 4 grid neighbors.
	center := stacks[topology.Loc(2, 2)]
	if got := center.Acquaintances().Len(); got != 4 {
		t.Errorf("center neighbors = %d, want 4", got)
	}
	// Corner node (1,1) has 2.
	corner := stacks[topology.Loc(1, 1)]
	if got := corner.Acquaintances().Len(); got != 2 {
		t.Errorf("corner neighbors = %d, want 2", got)
	}
}

func TestNeighborOrderDeterministic(t *testing.T) {
	s, _, stacks := testNet(t, 3, 3, Config{})
	startAll(stacks)
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	ns := stacks[topology.Loc(2, 2)].Acquaintances().Neighbors()
	want := []topology.Location{
		topology.Loc(2, 1), topology.Loc(1, 2), topology.Loc(3, 2), topology.Loc(2, 3),
	}
	for i, n := range ns {
		if n.Loc != want[i] {
			t.Errorf("neighbor[%d] = %v, want %v", i, n.Loc, want[i])
		}
	}
}

func TestNeighborExpiry(t *testing.T) {
	s, m, stacks := testNet(t, 2, 1, Config{BeaconEvery: time.Second, ExpireAfter: 2 * time.Second})
	startAll(stacks)
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	a := stacks[topology.Loc(1, 1)]
	if a.Acquaintances().Len() != 1 {
		t.Fatalf("want neighbor discovered before detach")
	}
	// Kill (2,1): no more beacons; (1,1) must forget it.
	stacks[topology.Loc(2, 1)].Stop()
	m.Detach(topology.Loc(2, 1))
	if err := s.Run(8 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := a.Acquaintances().Len(); got != 0 {
		t.Errorf("dead neighbor still listed (%d entries)", got)
	}
}

func TestAcquaintanceListAt(t *testing.T) {
	a := NewAcquaintanceList(time.Minute)
	a.Update(topology.Loc(5, 5), 0, 2)
	a.Update(topology.Loc(1, 1), 0, 0)

	n, ok := a.At(0)
	if !ok || n.Loc != topology.Loc(1, 1) {
		t.Errorf("At(0) = %v,%v; want (1,1)", n.Loc, ok)
	}
	if _, ok := a.At(2); ok {
		t.Error("At(2) should be out of range")
	}
	if _, ok := a.At(-1); ok {
		t.Error("At(-1) should be out of range")
	}
}

func TestGreedyRouteDelivers(t *testing.T) {
	s, _, stacks := testNet(t, 5, 5, Config{})
	startAll(stacks)
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	var deliveredAt topology.Location
	var deliveredBody []byte
	dst := topology.Loc(5, 5)
	stacks[dst].DeliverRouted = func(kind radio.FrameKind, env wire.Envelope) {
		deliveredAt = env.Dst
		deliveredBody = bytes.Clone(env.Body)
	}
	src := stacks[topology.Loc(1, 1)]
	if err := src.SendRouted(dst, radio.KindRemoteTS, []byte{7, 7}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := s.Run(6 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if deliveredAt != dst {
		t.Fatalf("payload not delivered to %v", dst)
	}
	if len(deliveredBody) != 2 || deliveredBody[0] != 7 {
		t.Errorf("body corrupted: %v", deliveredBody)
	}
}

func TestRouteToSelfDeliversLocally(t *testing.T) {
	s, m, _ := testNet(t, 1, 1, Config{})
	st := NewStack(s.Context(sim.Key2D(9, 9)), m, topology.Loc(9, 9), Config{})
	got := false
	st.DeliverRouted = func(kind radio.FrameKind, env wire.Envelope) { got = true }
	if err := st.SendRouted(topology.Loc(9, 9), radio.KindRemoteTS, []byte{1}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if !got {
		t.Error("local delivery did not happen")
	}
	if m.Stats().Sent != 0 {
		t.Error("self-delivery should not touch the radio")
	}
}

func TestRouteStallsWithoutProgress(t *testing.T) {
	// Single node: no neighbors at all, so any remote destination stalls.
	s, m, _ := testNet(t, 1, 1, Config{})
	st := NewStack(s.Context(sim.Key2D(1, 1)), m, topology.Loc(1, 1), Config{})
	if err := st.SendRouted(topology.Loc(5, 5), radio.KindRemoteTS, nil); err == nil {
		t.Error("want ErrNoRoute")
	}
	if st.Stats().RouteStalls == 0 {
		t.Error("stall not counted")
	}
}

// TestRelayCountsOneRouteStall: a relayed envelope with no neighbour closer
// to its destination counts one RouteStall, and a relay that browns out
// forwarding counts none.
func TestRelayCountsOneRouteStall(t *testing.T) {
	_, _, stacks := testNet(t, 2, 1, Config{})
	relay := stacks[topology.Loc(2, 1)]
	env := wire.Envelope{Src: topology.Loc(1, 1), Dst: topology.Loc(9, 1), TTL: 4, Kind: uint8(radio.KindRemoteTS)}
	f := radio.Frame{Src: topology.Loc(1, 1), Dst: relay.Self(), Kind: radio.KindRemoteTS, Payload: env.Encode()}
	relay.HandleFrame(f) // no acquaintances: no next hop
	if st := relay.Stats(); st.Forwarded != 1 || st.RouteStalls != 1 {
		t.Fatalf("stalled relay: Forwarded=%d RouteStalls=%d, want 1 and 1", st.Forwarded, st.RouteStalls)
	}
	relay.Acquaintances().Update(topology.Loc(3, 1), 0, 0) // closer to (9,1)
	relay.OnSend = func(int) { relay.Stop() }              // keying the radio browns the relay out
	relay.HandleFrame(f)
	if st := relay.Stats(); st.Forwarded != 2 || st.RouteStalls != 1 {
		t.Fatalf("browned-out relay: Forwarded=%d RouteStalls=%d, want 2 and 1", st.Forwarded, st.RouteStalls)
	}
}

func TestRouteHopCountMatchesManhattan(t *testing.T) {
	// Property: on a fully-discovered 4-connected grid, greedy routing
	// uses exactly the Manhattan distance in hops.
	s, m, stacks := testNet(t, 5, 5, Config{})
	startAll(stacks)
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	cases := []struct{ src, dst topology.Location }{
		{topology.Loc(1, 1), topology.Loc(5, 1)},
		{topology.Loc(1, 1), topology.Loc(5, 5)},
		{topology.Loc(3, 3), topology.Loc(1, 5)},
		{topology.Loc(2, 4), topology.Loc(4, 1)},
	}
	for _, tc := range cases {
		hops := 0
		m.Trace = func(f radio.Frame, to topology.Location, delivered bool) {
			if f.Kind == radio.KindRemoteTS {
				hops++
			}
		}
		done := false
		stacks[tc.dst].DeliverRouted = func(kind radio.FrameKind, env wire.Envelope) { done = true }
		if err := stacks[tc.src].SendRouted(tc.dst, radio.KindRemoteTS, nil); err != nil {
			t.Fatalf("%v->%v: %v", tc.src, tc.dst, err)
		}
		if err := s.Run(s.Now() + 5*time.Second); err != nil {
			t.Fatalf("run: %v", err)
		}
		m.Trace = nil
		if !done {
			t.Errorf("%v->%v: not delivered", tc.src, tc.dst)
		}
		if want := tc.src.GridHops(tc.dst); hops != want {
			t.Errorf("%v->%v: %d hops, want %d", tc.src, tc.dst, hops, want)
		}
	}
}

func TestTTLStopsRoutingLoops(t *testing.T) {
	// Force a pathological acquaintance list: two nodes that each think
	// the other is closer to an unreachable destination cannot ping-pong
	// forever thanks to the TTL.
	s := sim.New(7)
	m := radio.NewMedium(s, topology.Disk{Range: 10}, radio.ZeroLoss())
	a := NewStack(s.Context(sim.Key2D(1, 1)), m, topology.Loc(1, 1), Config{TTL: 4})
	b := NewStack(s.Context(sim.Key2D(1, 2)), m, topology.Loc(1, 2), Config{TTL: 4})
	if err := m.Attach(a.Self(), receiverFunc(a.HandleFrame)); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(b.Self(), receiverFunc(b.HandleFrame)); err != nil {
		t.Fatal(err)
	}
	// Hand-poison the tables: a thinks b is a neighbor and vice versa, and
	// the destination is far away but b appears (wrongly) closer to a and
	// a appears closer to b. With a disk radius covering both, frames
	// bounce until TTL runs out. Construct by lying about positions only
	// in the table (the medium still delivers by real location).
	a.Acquaintances().Update(topology.Loc(1, 2), 0, 0)
	b.Acquaintances().Update(topology.Loc(1, 1), 0, 0)

	// Destination far from both; each hop alternates because the partner
	// is the only neighbor and appears closer by a hair... in a symmetric
	// layout greedy stalls instead, so aim past b so that b->a is not
	// progress: then b stalls and drops. Either way the frame must die.
	if err := a.SendRouted(topology.Loc(1, 50), radio.KindRemoteTS, nil); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if n := s.Pending(); n != 0 {
		t.Fatalf("loop did not terminate: %d events still queued after an hour", n)
	}
	if got := a.Stats().DeliveredUp + b.Stats().DeliveredUp; got != 0 {
		t.Errorf("phantom delivery: %d", got)
	}
}

func TestNextHopPrefersDestination(t *testing.T) {
	s := sim.New(1)
	m := radio.NewMedium(s, topology.Grid{}, radio.ZeroLoss())
	st := NewStack(s.Context(sim.Key2D(2, 2)), m, topology.Loc(2, 2), Config{})
	st.Acquaintances().Update(topology.Loc(2, 3), 0, 0)
	st.Acquaintances().Update(topology.Loc(3, 2), 0, 0)

	hop, ok := st.NextHop(topology.Loc(3, 2))
	if !ok || hop != topology.Loc(3, 2) {
		t.Errorf("NextHop(direct neighbor) = %v,%v", hop, ok)
	}
	hop, ok = st.NextHop(topology.Loc(5, 2))
	if !ok || hop != topology.Loc(3, 2) {
		t.Errorf("NextHop(east dest) = %v,%v; want (3,2)", hop, ok)
	}
	if _, ok := st.NextHop(topology.Loc(1, 1)); ok {
		t.Error("no neighbor is closer to (1,1); NextHop must fail")
	}
}

func TestBeaconCarriesAgentCount(t *testing.T) {
	s, _, stacks := testNet(t, 2, 1, Config{})
	stacks[topology.Loc(1, 1)].NumAgents = func() int { return 3 }
	startAll(stacks)
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	ns := stacks[topology.Loc(2, 1)].Acquaintances().Neighbors()
	if len(ns) != 1 || ns[0].NumAgents != 3 {
		t.Errorf("neighbor agent count not propagated: %+v", ns)
	}
}

func TestStopHaltsBeacons(t *testing.T) {
	s, _, stacks := testNet(t, 2, 1, Config{BeaconEvery: time.Second})
	startAll(stacks)
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := stacks[topology.Loc(1, 1)]
	st.Stop()
	before := st.Stats().BeaconsSent
	if err := s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().BeaconsSent; got != before {
		t.Errorf("beacons kept flowing after Stop: %d -> %d", before, got)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.BeaconEvery != DefaultBeaconEvery || c.ExpireAfter != DefaultExpireAfter || c.TTL != DefaultTTL {
		t.Errorf("defaults not applied: %+v", c)
	}
}

// TestAcquaintanceListIsAnOrderedSlice: entries arrive in any order, read
// back in (Y,X) order, expire without disturbing it — and the operations
// the VM and the router perform per instruction and per frame (a beacon
// from a known neighbor, getnbr, the greedy next hop) allocate nothing.
func TestAcquaintanceListIsAnOrderedSlice(t *testing.T) {
	s := sim.New(1)
	m := radio.NewMedium(s, topology.Grid{Diag: true}, radio.ZeroLoss())
	st := NewStack(s.Context(sim.Key2D(5, 5)), m, topology.Loc(5, 5), Config{ExpireAfter: time.Second})
	a := st.Acquaintances()
	in := []topology.Location{{X: 6, Y: 6}, {X: 4, Y: 4}, {X: 6, Y: 4}, {X: 5, Y: 6}, {X: 4, Y: 5}, {X: 6, Y: 5}, {X: 5, Y: 4}, {X: 4, Y: 6}}
	for i, l := range in {
		a.Update(l, time.Duration(i)*100*time.Millisecond, uint8(i))
	}
	want := []topology.Location{{X: 4, Y: 4}, {X: 5, Y: 4}, {X: 6, Y: 4}, {X: 4, Y: 5}, {X: 6, Y: 5}, {X: 4, Y: 6}, {X: 5, Y: 6}, {X: 6, Y: 6}}
	for i, w := range want {
		if n, ok := a.At(i); !ok || n.Loc != w {
			t.Fatalf("At(%d) = %v,%v; want %v", i, n.Loc, ok, w)
		}
	}
	a.Update(topology.Loc(6, 6), 5*time.Second, 9) // a known neighbor: refreshed in place
	if n, _ := a.At(7); a.Len() != 8 || n.NumAgents != 9 || n.LastHeard != 5*time.Second {
		t.Fatalf("refresh of a known neighbor: len=%d entry=%+v", a.Len(), n)
	}
	if !a.Contains(topology.Loc(4, 5)) || a.Contains(topology.Loc(5, 5)) {
		t.Fatal("Contains disagrees with the entries")
	}

	var sink topology.Location
	if avg := testing.AllocsPerRun(100, func() {
		a.Update(topology.Loc(5, 6), 6*time.Second, 1)
		n, _ := a.At(3)
		hop, _ := st.NextHop(topology.Loc(9, 9))
		sink = n.Loc
		sink = hop
	}); avg != 0 {
		t.Errorf("Update of a known neighbor + At + NextHop allocate %.1f objects, want 0", avg)
	}
	_ = sink

	a.Expire(5900 * time.Millisecond) // everything but the two refreshed entries is over a second old
	if a.Len() != 2 {
		t.Fatalf("after Expire: %d entries, want 2", a.Len())
	}
	first, _ := a.At(0)
	second, _ := a.At(1)
	if first.Loc != topology.Loc(5, 6) || second.Loc != topology.Loc(6, 6) {
		t.Fatalf("survivors out of order: %v, %v", first.Loc, second.Loc)
	}
}

// TestBeaconSendReceiveAllocatesNothing: on a warm medium a beacon's send
// → receive allocates nothing. It is encoded into the shard's scratch,
// copied once into a pooled delivery, and refreshes a known acquaintance
// in place.
func TestBeaconSendReceiveAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s, _, stacks := testNet(t, 2, 1, Config{})
	a, b := stacks[topology.Loc(1, 1)], stacks[topology.Loc(2, 1)]
	a.NumAgents = func() int { return 2 }
	cycle := func() {
		a.SendBeacon()
		if err := s.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("beacon send→receive allocates %.1f objects, want 0", avg)
	}
	if ns := b.Acquaintances().Neighbors(); len(ns) != 1 || ns[0].Loc != a.Self() || ns[0].NumAgents != 2 {
		t.Fatalf("receiver's acquaintances = %+v, want %v with 2 agents", ns, a.Self())
	}
}

// TestFirstBeaconsAllocateNothing: a stack's acquaintance list is built
// with room for its topology degree, so hearing each of its neighbours
// for the first time allocates nothing.
func TestFirstBeaconsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	_, _, stacks := testNet(t, 3, 3, Config{})
	st := stacks[topology.Loc(2, 2)]
	beacon := wire.Beacon{NumAgents: 1}.Append(nil)
	nbrs := []topology.Location{topology.Loc(2, 1), topology.Loc(1, 2), topology.Loc(3, 2), topology.Loc(2, 3)}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, n := range nbrs {
		st.HandleFrame(radio.Frame{Src: n, Dst: radio.Broadcast, Kind: radio.KindBeacon, Payload: beacon})
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Errorf("hearing %d neighbours for the first time allocates %d objects, want 0", len(nbrs), got)
	}
	if got := st.Acquaintances().Neighbors(); len(got) != len(nbrs) {
		t.Fatalf("acquaintances = %+v, want the %d neighbours", got, len(nbrs))
	}
}

// TestRelayForwardAllocatesNothing: a warm routed envelope that crosses a
// relay allocates nothing end to end. The origin and the relay encode it
// into their shard's scratch, and each hop's delivery owns its copy.
func TestRelayForwardAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s, _, stacks := testNet(t, 3, 1, Config{})
	src, relay, dst := stacks[topology.Loc(1, 1)], stacks[topology.Loc(2, 1)], stacks[topology.Loc(3, 1)]
	src.Acquaintances().Update(relay.Self(), 0, 0)
	relay.Acquaintances().Update(dst.Self(), 0, 0)
	delivered := 0
	dst.DeliverRouted = func(_ radio.FrameKind, env wire.Envelope) {
		if bytes.Equal(env.Body, []byte{7, 7}) {
			delivered++
		}
	}
	body := []byte{7, 7}
	cycle := func() {
		if err := src.SendRouted(dst.Self(), radio.KindRemoteTS, body); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("a relayed envelope allocates %.1f objects, want 0", avg)
	}
	// AllocsPerRun makes one warm-up call of its own: 102 sends in all.
	if fwd := relay.Stats().Forwarded; delivered != 102 || fwd != 102 {
		t.Fatalf("%d envelopes delivered and %d forwarded in 102 sends", delivered, fwd)
	}
}
