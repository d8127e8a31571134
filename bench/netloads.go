package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/replica"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/transport"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/wire"
)

// --- bridge-tcp ---------------------------------------------------------

const (
	// bridgeQuantum is the virtual-time step between border pumps, the
	// bridge's own default.
	bridgeQuantum = 5 * time.Millisecond
	// drainCap bounds one drain barrier. A quantum that reaches it is
	// late: the next one starts with border frames still in flight.
	drainCap = 50 * time.Millisecond
	// pollsPerYield paces the barrier's spin. Yielding on every poll made
	// the run some 40 % slower: a goroutine that does little but Gosched
	// keeps the scheduler's run-queue lock busy, and waking the socket
	// goroutines needs that lock. 32 polls are under 2 µs, so a lone CPU
	// still reaches the socket goroutines promptly.
	pollsPerYield = 32
)

// freeTCPAddrs reserves n free localhost ports and releases them again:
// NewBridge calls Listen itself and a second Listen is an error, so the
// peer addresses must be known before either endpoint exists.
func freeTCPAddrs(n int) ([]transport.Addr, error) {
	out := make([]transport.Addr, 0, n)
	var held []net.Listener
	defer func() {
		for _, ln := range held {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		held = append(held, ln)
		out = append(out, transport.Addr("tcp:"+ln.Addr().String()))
	}
	return out, nil
}

// tap sits between a bridge and its transport so the drain barrier can
// watch border frames arrive. Transport.Stats would show the same but
// allocates a map per call, and the barrier polls a few hundred times a
// quantum. fill moves arrivals out of the transport's inbox and counts
// them; the bridge's Pump then receives exactly the frames a barrier
// has seen, never one that raced in after it.
type tap struct {
	transport.Transport
	sent atomic.Uint64 // frames the bridge handed to Send
	got  uint64        // frames fill has taken off the wire
	held []tapped
	head int
}

type tapped struct {
	from transport.Addr
	f    wire.Frame
}

func (p *tap) Send(addr transport.Addr, f wire.Frame) error {
	err := p.Transport.Send(addr, f)
	if err == nil {
		p.sent.Add(1)
	}
	return err
}

func (p *tap) fill() {
	for {
		from, f, ok := p.Transport.Recv()
		if !ok {
			return
		}
		p.held = append(p.held, tapped{from, f})
		p.got++
	}
}

func (p *tap) Recv() (transport.Addr, wire.Frame, bool) {
	if p.head == len(p.held) {
		p.held, p.head = p.held[:0], 0
		return "", wire.Frame{}, false
	}
	x := p.held[p.head]
	p.head++
	return x.from, x.f, true
}

// half is one process-worth of a bridged field: a deployment owning part
// of the layout, and the bridge relaying the rest to its peer.
type half struct {
	d    *core.Deployment
	br   *transport.Bridge
	tap  *tap
	peer transport.Addr
}

func (t *trial) newHalf(layout topology.Layout, own []topology.Location, base topology.Location,
	listen, peer transport.Addr, remote []topology.Location) (*half, error) {
	layout.Nodes = own
	layout.Gateway = own[topology.ClosestTo(base, own)]
	d, err := t.deploy(core.DeploymentSpec{Layout: layout, BaseLoc: &base, Field: t.field()})
	if err != nil {
		return nil, err
	}
	peers := make(map[topology.Location]transport.Addr, len(remote))
	for _, l := range remote {
		peers[l] = peer
	}
	h := &half{d: d, tap: &tap{Transport: transport.NewTCP(listen)}, peer: peer}
	err = t.timed(&t.deployD, "transport.NewBridge", func() (err error) {
		h.br, err = transport.NewBridge(h.tap, d.Medium, append(d.Locations(), base), peers)
		return err
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// pump injects the border frames the last barrier saw arrive.
func (t *trial) pump(h *half) {
	sp := t.o.tr.begin("bridge.Pump")
	h.br.Pump()
	t.o.tr.end(sp)
}

// run advances this half to virtual time until and puts the border
// frames it produced on the wire.
func (t *trial) run(h *half, until time.Duration) error {
	sp := t.o.tr.begin("sim.Run")
	err := h.d.Sim.Run(until)
	t.o.tr.end(sp)
	sp = t.o.tr.begin("transport.Flush")
	h.tap.Flush()
	t.o.tr.end(sp)
	return err
}

// drain is the barrier after a quantum: yield until every border frame
// either side sent has reached the other, or the cap passes.
func (t *trial) drain(a, b *half) (late bool) {
	sp := t.o.tr.begin("transport.drain")
	defer t.o.tr.end(sp)
	start := time.Now()
	for _, dir := range [2][2]*half{{a, b}, {b, a}} {
		from, to := dir[0], dir[1]
		for want, i := from.tap.sent.Load(), 1; ; i++ {
			if i%pollsPerYield == 0 {
				runtime.Gosched()
			}
			to.tap.fill()
			if to.tap.got >= want {
				break
			}
			if time.Since(start) > drainCap {
				// Write the missing frames off, or one frame the
				// transport dropped would make every later quantum late.
				to.tap.got = want
				return true
			}
		}
	}
	return false
}

// quanta co-drives both halves from this goroutine to virtual time
// until. Each quantum injects what the previous barrier delivered, runs
// both halves, flushes, and waits for delivery — so what a half injects
// never depends on how fast the socket was, and a run repeats exactly
// per seed unless a quantum is late.
func (t *trial) quanta(a, b *half, until time.Duration) error {
	for now := a.d.Sim.Now(); now < until; {
		now += bridgeQuantum
		if now > until {
			now = until
		}
		t.pump(a)
		t.pump(b)
		if err := t.run(a, now); err != nil {
			return err
		}
		if err := t.run(b, now); err != nil {
			return err
		}
		t.quantaRun++
		if t.drain(a, b) {
			t.quantaLate++
		}
	}
	return nil
}

// bridgeTrial runs the agents-lossy population on a field split down the
// middle into two deployments joined by a TCP bridge on localhost and
// lock-stepped in 5 ms quanta: every border frame is delivered before
// the next quantum starts. Reporters in the block columns touching the
// border report to the hub mirrored across it, so routed remote
// operations cross as well as migrations. Wall time here is per-quantum
// socket latency, not codec throughput.
func bridgeTrial(o opts) (*trial, error) {
	w, h, settle, span, slices := 40, 20, 5*time.Second, 35*time.Second, 100
	if o.smoke {
		w, h, settle, span, slices = 10, 5, time.Second, 2*time.Second, 10
	}
	t := newTrial(o)
	addrs, err := freeTCPAddrs(2)
	if err != nil {
		return nil, err
	}
	layout := topology.GridLayout(w, h)
	var aOwn, bOwn []topology.Location
	for _, l := range layout.Nodes {
		if int(l.X) <= w/2 {
			aOwn = append(aOwn, l)
		} else {
			bOwn = append(bOwn, l)
		}
	}
	aBase, bBase := topology.Loc(0, 0), topology.Loc(100, 100) // B's base sits off the field
	a, err := t.newHalf(layout, aOwn, aBase, addrs[0], addrs[1], append(bOwn, bBase))
	if err != nil {
		return nil, err
	}
	defer a.br.Close()
	b, err := t.newHalf(layout, bOwn, bBase, addrs[1], addrs[0], append(aOwn, aBase))
	if err != nil {
		return nil, err
	}
	defer b.br.Close()

	// The hub of a block column touching the border is mirrored across
	// it: x ↦ w+1-x maps column block [w/2-4, w/2] onto [w/2+1, w/2+5].
	hubFor := func(l topology.Location) topology.Location {
		hub := hubOf(l, w, h)
		if d := int(l.X) - w/2; d > -hubBlock && d <= hubBlock {
			hub.X = int16(w+1) - hub.X
		}
		return hub
	}
	err = t.timed(&t.warmD, "core.WarmUp", func() error {
		a.d.Start()
		b.d.Start()
		return t.quanta(a, b, 5*time.Second)
	})
	if err != nil {
		return nil, err
	}
	err = t.timed(&t.populateD, "populate", func() error {
		for _, hf := range []*half{a, b} {
			if err := t.populateAgents(hf.d, w, h, hubFor); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	start := a.d.Sim.Now()
	err = t.timed(&t.warmD, "quanta(warm-up)", func() error { return t.quanta(a, b, start+settle) })
	if err != nil {
		return nil, err
	}

	mk, err := t.beginTimed(a.d, b.d)
	if err != nil {
		return nil, err
	}
	start = a.d.Sim.Now()
	step := span / time.Duration(slices)
	t.unitsPerSlice = step.Seconds()
	for i := 1; i <= slices; i++ {
		t0 := time.Now()
		if err := t.quanta(a, b, start+step*time.Duration(i)); err != nil {
			mk.abort()
			return nil, err
		}
		t.sliceDone(time.Since(t0))
	}
	t.endTimed(mk, a.d, b.d)

	t.scoreProtocols()
	t.calls += t.quantaRun
	t.ops += t.quantaRun
	t.opsFailed += t.quantaLate
	for i, hf := range []*half{a, b} {
		st := hf.br.Stats()
		if st.Misrouted != 0 || st.Stale != 0 {
			t.failf("half %c: %d misrouted, %d stale border frames", 'A'+i, st.Misrouted, st.Stale)
		}
		if st.Relayed == 0 || st.Injected == 0 {
			t.failf("half %c: border carried no traffic both ways (%d relayed, %d injected)", 'A'+i, st.Relayed, st.Injected)
		}
	}
	t.finishSim(a.d, b.d)
	if t.o.tr != nil {
		sp := t.o.tr.begin("stats.read")
		for _, hf := range []*half{a, b} {
			st := hf.br.Stats()
			t.layer["bridge.relayed"] += float64(st.Relayed)
			t.layer["bridge.injected"] += float64(st.Injected)
			t.layer["bridge.stale"] += float64(st.Stale)
			t.layer["bridge.misrouted"] += float64(st.Misrouted)
			t.addPeerStats(hf.br.Transport().Stats()[hf.peer])
		}
		t.o.tr.end(sp)
	}
	return t, nil
}

// addPeerStats folds one sender-side peer record into the transport
// layer counts.
func (t *trial) addPeerStats(s transport.PeerStats) {
	t.layer["transport.sent"] += float64(s.Sent)
	t.layer["transport.batches"] += float64(s.Batches)
	t.layer["transport.dropped"] += float64(s.Dropped)
	t.layer["transport.malformed"] += float64(s.Malformed)
	t.layer["transport.send_errs"] += float64(s.SendErrs)
	t.layer["transport.sent_bytes"] += float64(s.SentBytes)
}

// --- wire-flood ---------------------------------------------------------

// wireMix is the border frame mix of experiments.wireWorkload — a
// beacon, the four-message migration burst with its ack, a routed remote
// request and a replica digest, built with the real payload codecs — with
// the field values drawn from the seed.
func wireMix(seed int64) []wire.Frame {
	rng := rand.New(rand.NewSource(seed))
	loc := func() topology.Location { return topology.Loc(int16(1+rng.Intn(40)), int16(1+rng.Intn(20))) }
	id, seq := uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16))
	req := wire.RemoteRequest{
		ReqID:    uint16(rng.Intn(1 << 16)),
		Op:       wire.OpRrdp,
		ReplyTo:  loc(),
		Template: tuplespace.Tmpl(tuplespace.Str("cfg"), tuplespace.TypeV(tuplespace.TypeValue)),
	}
	env := wire.Envelope{Src: req.ReplyTo, Dst: loc(), TTL: 12, Kind: uint8(radio.KindRemoteTS), Body: req.Encode()}
	digest := wire.ReplicaDigest{Lines: []replica.Summary{
		{Node: loc(), AddMax: uint16(rng.Intn(16)), RemHash: rng.Uint32()},
		{Node: loc(), AddMax: uint16(rng.Intn(16)), RemHash: rng.Uint32()},
		{Node: loc(), AddMax: uint16(rng.Intn(16))},
	}}
	var block [wire.CodeBlockSize]byte
	rng.Read(block[:])
	payloads := []struct {
		kind radio.FrameKind
		b    []byte
	}{
		{radio.KindBeacon, wire.Beacon{NumAgents: uint8(rng.Intn(4))}.Encode()},
		{radio.KindMigrate, wire.StateMsg{
			AgentID: id, Seq: seq, Kind: wire.MigStrongMove, Dest: loc(), PC: 2, CodeLen: 44, NCode: 2,
		}.Encode()},
		{radio.KindMigrate, wire.CodeMsg{AgentID: id, Seq: seq, Index: 0, Block: block}.Encode()},
		{radio.KindMigrate, wire.CodeMsg{AgentID: id, Seq: seq, Index: 1, Block: block}.Encode()},
		{radio.KindMigrateCtl, wire.AckMsg{AgentID: id, Seq: seq, Of: wire.MsgCode, Index: 1}.Encode()},
		{radio.KindRemoteTS, env.Encode()},
		{radio.KindReplicaDigest, digest.Encode()},
	}
	// Sources and destinations rotate over a small border's worth of
	// coordinates; 4 × 7 frames is one cycle of the mix.
	mix := make([]wire.Frame, 4*len(payloads))
	for i := range mix {
		p := payloads[i%len(payloads)]
		mix[i] = wire.Frame{
			Kind:    uint8(p.kind),
			Src:     topology.Loc(int16(1+i%4), 1),
			Dst:     topology.Loc(int16(1+i%4), 2),
			Payload: p.b,
		}
	}
	return mix
}

// frameSum is the checksum a delivered frame must reproduce.
func frameSum(f wire.Frame) uint32 {
	hdr := [9]byte{f.Kind, byte(f.Src.X), byte(f.Src.X >> 8), byte(f.Src.Y), byte(f.Src.Y >> 8),
		byte(f.Dst.X), byte(f.Dst.X >> 8), byte(f.Dst.Y), byte(f.Dst.Y >> 8)}
	return crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, f.Payload)
}

// wireWindow is the closed-loop flow-control window: the sender never
// has more than two windows in flight, which fits the transport's
// 4096-frame inbox, so a lossless wire delivers every frame.
const wireWindow = 2048

// flood is one sender and one receiver over a pair of TCP endpoints,
// both driven from this goroutine.
type flood struct {
	t        *trial
	src, dst transport.Transport
	peer     transport.Addr
	mix      []wire.Frame
	sums     []uint32
	sent     int // frames offered
	recv     int // frames delivered and verified
	bad      int // frames delivered with the wrong checksum
}

// pump offers n frames (a multiple of the window), flushing and draining
// after every window.
func (f *flood) pump(n int) error {
	tr := f.t.o.tr
	for end := f.sent + n; f.sent < end; {
		sp := tr.begin("transport.Send")
		for i := 0; i < wireWindow; i++ {
			if err := f.src.Send(f.peer, f.mix[f.sent%len(f.mix)]); err != nil {
				tr.end(sp)
				return err
			}
			f.sent++
		}
		tr.end(sp)
		sp = tr.begin("transport.Flush")
		f.src.Flush()
		tr.end(sp)
		if err := f.drainTo(f.sent - wireWindow); err != nil {
			return err
		}
	}
	return nil
}

// drainTo receives and verifies frames until at least want have arrived.
// TCP is ordered, so the k-th frame received must be the k-th sent.
func (f *flood) drainTo(want int) error {
	tr := f.t.o.tr
	sp := tr.begin("transport.Recv")
	defer tr.end(sp)
	idleSince := time.Time{}
	for idle := 0; f.recv+f.bad < want; {
		_, fr, ok := f.dst.Recv()
		if !ok {
			if idle++; idle%pollsPerYield != 0 {
				continue
			}
			if idleSince.IsZero() {
				idleSince = time.Now()
			} else if time.Since(idleSince) > 2*time.Second {
				return fmt.Errorf("wire-flood: stalled with %d of %d frames delivered", f.recv+f.bad, f.sent)
			}
			runtime.Gosched()
			continue
		}
		idleSince = time.Time{}
		if frameSum(fr) == f.sums[(f.recv+f.bad)%len(f.sums)] {
			f.recv++
		} else {
			f.bad++
		}
	}
	return nil
}

// wireTrial floods the seeded frame mix through two TCP endpoints on
// localhost. wire.Batch, the coalescer and socket I/O do all the work and
// the simulator none: the opposite use of transport from bridge-tcp
// (throughput-bound where that one is latency-bound).
func wireTrial(o opts) (*trial, error) {
	perSlice, slices, warm := 20*wireWindow, 100, 100*wireWindow
	if o.smoke {
		perSlice, slices, warm = 2*wireWindow, 10, 2*wireWindow
	}
	t := newTrial(o)
	runtime.GC()
	f := &flood{t: t}
	err := t.timed(&t.populateD, "populate", func() error {
		f.mix = wireMix(o.seed)
		for _, fr := range f.mix {
			f.sums = append(f.sums, frameSum(fr))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = t.timed(&t.deployD, "transport.Listen+Dial", func() error {
		f.src, f.dst = transport.NewTCP("tcp:127.0.0.1:0"), transport.NewTCP("tcp:127.0.0.1:0")
		if err := f.src.Listen(); err != nil {
			return err
		}
		if err := f.dst.Listen(); err != nil {
			return err
		}
		f.peer = f.dst.LocalAddr()
		return f.src.Dial(f.peer)
	})
	if f.src != nil {
		defer f.src.Close()
	}
	if f.dst != nil {
		defer f.dst.Close()
	}
	if err != nil {
		return nil, err
	}
	err = t.timed(&t.warmD, "flood(warm-up)", func() error {
		if err := f.pump(warm); err != nil {
			return err
		}
		return f.drainTo(f.sent)
	})
	if err != nil {
		return nil, err
	}

	mk, err := t.beginTimed()
	if err != nil {
		return nil, err
	}
	t.unitsPerSlice = float64(perSlice)
	for i := 0; i < slices; i++ {
		t0 := time.Now()
		if err := f.pump(perSlice); err != nil {
			mk.abort()
			return nil, err
		}
		t.sliceDone(time.Since(t0))
	}
	// The tail window is outside the slices: every slice ends with one
	// window in flight and starts by draining the previous one.
	tailErr := f.drainTo(f.sent)
	t.endTimed(mk)
	if tailErr != nil {
		return nil, tailErr
	}

	t.calls = uint64(f.sent)
	t.callErrs = uint64(f.sent - f.recv)
	t.ops, t.opsFailed = t.calls, t.callErrs
	if f.bad > 0 {
		t.failf("%d of %d frames arrived with the wrong checksum", f.bad, f.sent)
	}
	st := f.src.Stats()[f.peer]
	if rs := f.dst.Stats()[f.src.LocalAddr()]; rs.Recv != uint64(f.sent) {
		t.failf("receiver counted %d frames, sender offered %d", rs.Recv, f.sent)
	}
	if t.o.tr != nil {
		t.addPeerStats(st)
	}
	return t, nil
}
