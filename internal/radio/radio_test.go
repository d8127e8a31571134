package radio

import (
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
)

type captureNode struct {
	got []Frame
}

func (c *captureNode) ReceiveFrame(f Frame) { c.got = append(c.got, f) }

func newTestMedium(t *testing.T, params Params) (*sim.Sim, *Medium, map[topology.Location]*captureNode) {
	t.Helper()
	s := sim.New(1)
	m := NewMedium(s, topology.Grid{}, params)
	nodes := make(map[topology.Location]*captureNode)
	for _, loc := range topology.GridLocations(3, 3) {
		n := &captureNode{}
		nodes[loc] = n
		if err := m.Attach(loc, n); err != nil {
			t.Fatal(err)
		}
	}
	return s, m, nodes
}

func TestUnicastDelivery(t *testing.T) {
	s, m, nodes := newTestMedium(t, ZeroLoss())
	m.Send(Frame{Src: topology.Loc(1, 1), Dst: topology.Loc(2, 1), Kind: KindRemoteTS, Payload: []byte{1, 2, 3}})
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	got := nodes[topology.Loc(2, 1)].got
	if len(got) != 1 {
		t.Fatalf("neighbor received %d frames, want 1", len(got))
	}
	if got[0].Kind != KindRemoteTS || len(got[0].Payload) != 3 {
		t.Fatalf("frame corrupted: %+v", got[0])
	}
	// Nobody else hears a unicast in this model.
	for loc, n := range nodes {
		if loc != topology.Loc(2, 1) && len(n.got) != 0 {
			t.Fatalf("node %v overheard unicast", loc)
		}
	}
}

func TestUnicastToNonNeighborIsFiltered(t *testing.T) {
	s, m, nodes := newTestMedium(t, ZeroLoss())
	// (1,1) -> (3,1) is two grid hops; the testbed filter must drop it.
	m.Send(Frame{Src: topology.Loc(1, 1), Dst: topology.Loc(3, 1)})
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if len(nodes[topology.Loc(3, 1)].got) != 0 {
		t.Fatal("non-neighbor received frame despite grid filter")
	}
	if m.Stats().NoRoute != 1 {
		t.Fatalf("NoRoute = %d, want 1", m.Stats().NoRoute)
	}
}

func TestBroadcastReachesAllGridNeighbors(t *testing.T) {
	s, m, nodes := newTestMedium(t, ZeroLoss())
	m.Send(Frame{Src: topology.Loc(2, 2), Dst: Broadcast, Kind: KindBeacon})
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	wantHear := []topology.Location{
		topology.Loc(1, 2), topology.Loc(3, 2), topology.Loc(2, 1), topology.Loc(2, 3),
	}
	for _, loc := range wantHear {
		if len(nodes[loc].got) != 1 {
			t.Errorf("neighbor %v heard %d beacons, want 1", loc, len(nodes[loc].got))
		}
	}
	if len(nodes[topology.Loc(2, 2)].got) != 0 {
		t.Error("sender heard its own beacon")
	}
	if len(nodes[topology.Loc(1, 1)].got) != 0 {
		t.Error("diagonal node heard beacon on 4-connected grid")
	}
}

func TestAirtimeAndDelay(t *testing.T) {
	p := ZeroLoss()
	// 7 header + 8 preamble + 21 payload = 36 bytes = 288 bits @38.4kbps = 7.5ms
	if got, want := p.Airtime(21), 7500*time.Microsecond; got != want {
		t.Fatalf("Airtime = %v, want %v", got, want)
	}
	if got, want := p.FrameDelay(21), 7500*time.Microsecond+p.ProcDelay; got != want {
		t.Fatalf("FrameDelay = %v, want %v", got, want)
	}
}

func TestDeliveryLatencyMatchesModel(t *testing.T) {
	s, m, nodes := newTestMedium(t, ZeroLoss())
	m.Send(Frame{Src: topology.Loc(1, 1), Dst: topology.Loc(2, 1), Payload: make([]byte, 21)})
	var at time.Duration
	ok, err := s.RunUntil(func() bool {
		if len(nodes[topology.Loc(2, 1)].got) == 1 {
			at = s.Now()
			return true
		}
		return false
	}, time.Second)
	if err != nil || !ok {
		t.Fatalf("frame not delivered: ok=%v err=%v", ok, err)
	}
	want := ZeroLoss().FrameDelay(21)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestPayloadIsCopiedAcrossAir(t *testing.T) {
	s, m, nodes := newTestMedium(t, ZeroLoss())
	buf := []byte{1, 2, 3}
	m.Send(Frame{Src: topology.Loc(1, 1), Dst: topology.Loc(2, 1), Payload: buf})
	buf[0] = 99 // sender mutates its buffer after transmission
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	got := nodes[topology.Loc(2, 1)].got[0].Payload
	if got[0] != 1 {
		t.Fatal("receiver saw sender's post-send mutation; payload must be copied")
	}
}

func TestDuplicateAttachFails(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, topology.Grid{}, ZeroLoss())
	n := &captureNode{}
	if err := m.Attach(topology.Loc(1, 1), n); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(topology.Loc(1, 1), n); err == nil {
		t.Fatal("duplicate attach succeeded")
	}
}

func TestDetach(t *testing.T) {
	s, m, nodes := newTestMedium(t, ZeroLoss())
	m.Detach(topology.Loc(2, 1))
	m.Send(Frame{Src: topology.Loc(1, 1), Dst: topology.Loc(2, 1)})
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if len(nodes[topology.Loc(2, 1)].got) != 0 {
		t.Fatal("detached node received frame")
	}
}

func TestLossRateApproximatesModel(t *testing.T) {
	p := ZeroLoss()
	p.LossGood = 0.2 // Bernoulli: no bad state
	s := sim.New(42)
	m := NewMedium(s, topology.Grid{}, p)
	n := &captureNode{}
	if err := m.Attach(topology.Loc(1, 1), &captureNode{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(topology.Loc(2, 1), n); err != nil {
		t.Fatal(err)
	}
	const trials = 5000
	for i := 0; i < trials; i++ {
		m.Send(Frame{Src: topology.Loc(1, 1), Dst: topology.Loc(2, 1)})
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	rate := 1 - float64(len(n.got))/trials
	if rate < 0.17 || rate > 0.23 {
		t.Fatalf("empirical loss %v too far from 0.2", rate)
	}
}

func TestBurstLossIsBursty(t *testing.T) {
	// With a strongly bursty channel, consecutive losses should cluster:
	// the number of loss runs should be well below the number of losses.
	p := ZeroLoss()
	p.LossGood = 0.0
	p.LossBad = 1.0
	p.PGoodBad = 0.05
	p.PBadGood = 0.2
	s := sim.New(7)
	m := NewMedium(s, topology.Grid{}, p)
	n := &captureNode{}
	if err := m.Attach(topology.Loc(1, 1), &captureNode{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(topology.Loc(2, 1), n); err != nil {
		t.Fatal(err)
	}
	const trials = 4000
	outcome := make([]bool, 0, trials) // true = delivered
	m.Trace = func(_ Frame, _ topology.Location, delivered bool) {
		outcome = append(outcome, delivered)
	}
	for i := 0; i < trials; i++ {
		m.Send(Frame{Src: topology.Loc(1, 1), Dst: topology.Loc(2, 1)})
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	losses, runs := 0, 0
	for i, ok := range outcome {
		if !ok {
			losses++
			if i == 0 || outcome[i-1] {
				runs++
			}
		}
	}
	if losses == 0 {
		t.Fatal("no losses under bursty model")
	}
	if avg := float64(losses) / float64(runs); avg < 2 {
		t.Fatalf("mean loss-burst length %.2f, want >= 2 (losses=%d runs=%d)", avg, losses, runs)
	}
}

func TestStatsCounting(t *testing.T) {
	s, m, _ := newTestMedium(t, ZeroLoss())
	m.Send(Frame{Src: topology.Loc(1, 1), Dst: topology.Loc(2, 1), Payload: []byte{1}})
	m.Send(Frame{Src: topology.Loc(1, 1), Dst: topology.Loc(5, 5)}) // not attached there? (5,5) not in 3x3 grid
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Sent != 2 || st.Delivered != 1 || st.NoRoute != 1 || st.Bytes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBroadcastNeighborCacheFollowsAttachDetach(t *testing.T) {
	s, m, nodes := newTestMedium(t, ZeroLoss())
	send := func() int {
		for _, n := range nodes {
			n.got = nil
		}
		m.Send(Frame{Src: topology.Loc(2, 2), Dst: Broadcast, Kind: KindBeacon})
		if err := s.RunUntilIdle(0); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, n := range nodes {
			total += len(n.got)
		}
		return total
	}
	if got := send(); got != 4 {
		t.Fatalf("initial broadcast reached %d nodes, want 4", got)
	}
	// A detached neighbor must drop out of the cached fan-out.
	m.Detach(topology.Loc(2, 1))
	if got := send(); got != 3 {
		t.Fatalf("broadcast after detach reached %d nodes, want 3", got)
	}
	// Reattaching at the same location must bring it back.
	if err := m.Attach(topology.Loc(2, 1), nodes[topology.Loc(2, 1)]); err != nil {
		t.Fatalf("reattach: %v", err)
	}
	if got := send(); got != 4 {
		t.Fatalf("broadcast after reattach reached %d nodes, want 4", got)
	}
	// A location never seen before must invalidate warm caches: attach a
	// brand-new node at (1,4) and check it shows up in (1,3)'s fan-out
	// even though (1,3) broadcast (and so cached its list) beforehand.
	m.Send(Frame{Src: topology.Loc(1, 3), Dst: Broadcast, Kind: KindBeacon}) // warm (1,3)'s cache
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	fresh := &captureNode{}
	if err := m.Attach(topology.Loc(1, 4), fresh); err != nil {
		t.Fatalf("attach new location: %v", err)
	}
	m.Send(Frame{Src: topology.Loc(1, 3), Dst: Broadcast, Kind: KindBeacon})
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if len(fresh.got) != 1 {
		t.Fatalf("newly attached node heard %d broadcasts, want 1 (stale fan-out cache?)", len(fresh.got))
	}
}

func TestBroadcastSharesOnePayloadCopy(t *testing.T) {
	s, m, nodes := newTestMedium(t, ZeroLoss())
	buf := []byte{1, 2, 3, 4}
	m.Send(Frame{Src: topology.Loc(2, 2), Dst: Broadcast, Kind: KindBeacon, Payload: buf})
	// Mutating the sender's buffer after Send must not corrupt deliveries:
	// the medium snapshots the payload once per send.
	buf[0] = 99
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	var frames []Frame
	for _, n := range nodes {
		frames = append(frames, n.got...)
	}
	if len(frames) != 4 {
		t.Fatalf("broadcast reached %d receivers, want 4", len(frames))
	}
	for _, f := range frames {
		if f.Payload[0] != 1 {
			t.Fatal("sender mutation leaked into a delivered frame")
		}
	}
	// All receivers share the same backing array (one copy per send).
	for _, f := range frames[1:] {
		if &f.Payload[0] != &frames[0].Payload[0] {
			t.Fatal("receivers got distinct payload copies; want one shared copy per send")
		}
	}
}

func TestLinkStateLazyAllocationAndStats(t *testing.T) {
	// A zero-loss, zero-jitter medium must allocate no link state at all.
	s, m, _ := newTestMedium(t, ZeroLoss())
	m.Send(Frame{Src: topology.Loc(1, 1), Dst: topology.Loc(2, 1), Kind: KindBeacon})
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Links; got != 0 {
		t.Fatalf("zero-loss medium allocated %d link states, want 0", got)
	}

	// A lossy medium allocates one state per directed link actually used,
	// and only for those.
	s2, m2, _ := newTestMedium(t, Lossy())
	m2.Send(Frame{Src: topology.Loc(1, 1), Dst: topology.Loc(2, 1), Kind: KindBeacon})
	m2.Send(Frame{Src: topology.Loc(1, 1), Dst: topology.Loc(2, 1), Kind: KindBeacon})
	m2.Send(Frame{Src: topology.Loc(2, 1), Dst: topology.Loc(1, 1), Kind: KindBeacon})
	if err := s2.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if got := m2.Stats().Links; got != 2 {
		t.Fatalf("lossy medium tracks %d links, want 2 (one per used directed link)", got)
	}
}

// TestLinkGeneratorMatchesStream holds the by-value link generator to the
// *rand.Rand it replaced: for 100 links, the first 10k loss and jitter
// draws are bit for bit what sim.Stream over the same salts returns.
func TestLinkGeneratorMatchesStream(t *testing.T) {
	jitter := int64(Lossy().ProcJitter)
	for i := 0; i < 100; i++ {
		seed := int64(7 + i%3)
		from, to := topology.Loc(int16(i), int16(2*i)), topology.Loc(int16(i+1), int16(-i))
		salts := []uint64{saltLink, uint64(sim.Key2D(from.X, from.Y)), uint64(sim.Key2D(to.X, to.Y))}
		want := sim.Stream(seed, salts...)
		got := sim.NewRand(seed, salts...)
		for n := 0; n < 10_000; n++ {
			if n%3 == 2 {
				if g, w := got.Int63n(jitter), want.Int63n(jitter); g != w {
					t.Fatalf("link %d draw %d: Int63n = %d, Stream's %d", i, n, g, w)
				}
			} else if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("link %d draw %d: Float64 = %v, Stream's %v", i, n, g, w)
			}
		}
	}
}

// lossPattern sends n frames over (1,1)->(2,1) and returns which were
// delivered (the channel's decision, taken at Send).
func lossPattern(m *Medium, n int) []bool {
	var out []bool
	m.Trace = func(_ Frame, _ topology.Location, delivered bool) { out = append(out, delivered) }
	for i := 0; i < n; i++ {
		m.Send(Frame{Src: topology.Loc(1, 1), Dst: topology.Loc(2, 1)})
	}
	m.Trace = nil
	return out
}

// TestLinkStateOutlivesFanoutRebuild: a version bump (a new location
// attaches, a bystander moves, even the link's far end moves away and
// back) may rebuild the source's fan-out but never resets a link's chain
// or its stream position.
func TestLinkStateOutlivesFanoutRebuild(t *testing.T) {
	p := Lossy()
	p.LossGood, p.PGoodBad, p.PBadGood = 0.3, 0.2, 0.3 // a busy chain: every draw matters
	const n, m = 400, 400
	_, control, _ := newTestMedium(t, p)
	want := append(lossPattern(control, n), lossPattern(control, m)...)

	mutations := map[string]func(*Medium){
		"attach a new location": func(md *Medium) {
			if err := md.Attach(topology.Loc(1, 0), &captureNode{}); err != nil {
				t.Fatal(err)
			}
		},
		"move a bystander": func(md *Medium) {
			if err := md.Move(topology.Loc(3, 3), topology.Loc(9, 9)); err != nil {
				t.Fatal(err)
			}
		},
		"move the far end away and back": func(md *Medium) {
			if err := md.Move(topology.Loc(2, 1), topology.Loc(8, 8)); err != nil {
				t.Fatal(err)
			}
			md.Send(Frame{Src: topology.Loc(1, 1), Dst: Broadcast}) // rebuild while it is gone
			if err := md.Move(topology.Loc(8, 8), topology.Loc(2, 1)); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, mutate := range mutations {
		_, md, _ := newTestMedium(t, p)
		got := lossPattern(md, n)
		before := md.Stats().Links
		mutate(md)
		got = append(got, lossPattern(md, m)...)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: frame %d delivered=%v, want %v: the link's channel state was reset", name, i, got[i], want[i])
			}
		}
		if after := md.Stats().Links; after < before {
			t.Fatalf("%s: Links fell from %d to %d", name, before, after)
		}
	}
}

// TestLinksCountLinksThatCarriedAFrame: Stats().Links is in the
// benchmark's state hash, so it must keep counting a link at its first
// frame — not when a fan-out happens to list it.
func TestLinksCountLinksThatCarriedAFrame(t *testing.T) {
	s, m, _ := newTestMedium(t, Lossy())
	m.Send(Frame{Src: topology.Loc(2, 2), Dst: topology.Loc(2, 3)})
	if got := m.Stats().Links; got != 1 {
		t.Fatalf("after one unicast from a source with four neighbours: Links = %d, want 1", got)
	}
	m.Send(Frame{Src: topology.Loc(2, 2), Dst: Broadcast})
	m.Send(Frame{Src: topology.Loc(2, 2), Dst: Broadcast})
	if got := m.Stats().Links; got != 4 {
		t.Fatalf("after a broadcast: Links = %d, want 4", got)
	}
	m.Send(Frame{Src: topology.Loc(2, 2), Dst: topology.Loc(3, 3)}) // not connected: no link
	m.Detach(topology.Loc(1, 1))
	m.Send(Frame{Src: topology.Loc(1, 2), Dst: topology.Loc(1, 1)}) // nobody there: no link
	if got := m.Stats().Links; got != 4 {
		t.Fatalf("frames that found no route grew Links to %d", got)
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
}

// TestUnicastFindsItsLinkInTheFanout: on a degree-40 random-disk source a
// unicast finds receiver and channel state by searching the source's own
// ordered fan-out — no link is ever added by the fallback path, and a
// send→deliver cycle allocates nothing.
func TestUnicastFindsItsLinkInTheFanout(t *testing.T) {
	const degree = 40
	s := sim.New(3)
	src := topology.Loc(100, 100)
	m := NewMedium(s, topology.Disk{Range: 10}, Lossy())
	if err := m.Attach(src, &captureNode{}); err != nil {
		t.Fatal(err)
	}
	rng := sim.Stream(3)
	nodes := make(map[topology.Location]*captureNode)
	for len(nodes) < degree {
		l := topology.Loc(int16(93+rng.Intn(15)), int16(93+rng.Intn(15)))
		if l == src || nodes[l] != nil || src.Dist(l) > 10 {
			continue
		}
		nodes[l] = &captureNode{}
		if err := m.Attach(l, nodes[l]); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Attach(topology.Loc(300, 300), &captureNode{}); err != nil { // out of range
		t.Fatal(err)
	}
	m.Send(Frame{Src: src, Dst: Broadcast})
	fo := m.sh[0].fan[src]
	if len(fo.links) != degree {
		t.Fatalf("fan-out lists %d links, want %d", len(fo.links), degree)
	}
	const rounds = 50 // enough that loss leaves every node some frames
	for r := 0; r < rounds; r++ {
		for l := range nodes {
			m.Send(Frame{Src: src, Dst: l, Kind: KindRemoteTS})
		}
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	for l, n := range nodes {
		uni := 0
		for _, f := range n.got {
			if f.Kind == KindRemoteTS {
				if f.Dst != l {
					t.Fatalf("%v received a unicast addressed to %v", l, f.Dst)
				}
				uni++
			}
		}
		if uni == 0 || uni > rounds {
			t.Fatalf("%v received %d of %d unicasts", l, uni, rounds)
		}
		n.got = nil
	}
	if len(fo.links) != degree || m.Stats().Links != degree {
		t.Fatalf("after unicasts: %d links listed, %d counted, want %d and %d: a unicast missed the fan-out",
			len(fo.links), m.Stats().Links, degree, degree)
	}
	for i := 1; i < len(fo.links); i++ {
		if !locLess(fo.links[i-1].to, fo.links[i].to) {
			t.Fatalf("fan-out out of (Y,X) order at %d: %v then %v", i, fo.links[i-1].to, fo.links[i].to)
		}
	}
	dst := fo.links[degree/2].to
	sink := nodes[dst]
	cycle := func() {
		m.Send(Frame{Src: src, Dst: dst})
		if err := s.RunUntilIdle(0); err != nil {
			t.Fatal(err)
		}
		sink.got = sink.got[:0]
	}
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("unicast send→deliver allocates %.1f objects, want 0", avg)
	}
}
