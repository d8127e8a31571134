package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/network"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/replica"
	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/transport"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
	"github.com/agilla-go/agilla/internal/wire"
)

// Layer probes time one layer's public API in isolation, with no
// simulator around it unless the layer is the simulator. A probe's
// number moves only when that layer's own code does, which is what
// makes the cpu_share a workload reports for the layer actionable.

// timer lets a probe keep its re-arming work off the clock. *testing.B
// implements it, so every probe is also a `go test -bench` function.
type timer interface {
	StartTimer()
	StopTimer()
}

// probe is one timed layer operation. build sets the layer up and
// returns the operation, which performs n iterations.
type probe struct {
	metric string
	iters  int           // iterations per -probes measurement
	unit   time.Duration // the metric is elapsed/unit per iteration
	build  func() func(n int, tm timer)
}

// stopwatch is the timer outside `go test`.
type stopwatch struct {
	total time.Duration
	since time.Time
}

func (s *stopwatch) StartTimer() { s.since = time.Now() }
func (s *stopwatch) StopTimer()  { s.total += time.Since(s.since) }

// measure runs the probe three times, iters iterations each, and
// returns the median cost of one iteration in the probe's unit.
func (p probe) measure(iters int) float64 {
	op := p.build()
	var runs []float64
	for i := 0; i < 3; i++ {
		var sw stopwatch
		sw.StartTimer()
		op(iters, &sw)
		sw.StopTimer()
		runs = append(runs, float64(sw.total)/float64(p.unit)/float64(iters))
	}
	sort.Float64s(runs)
	return runs[1]
}

var timedProbes = []probe{
	{"sim.probe_ns_event_10k", 400_000, time.Nanosecond, func() func(int, timer) { return simEventProbe(10_000) }},
	{"sim.probe_ns_event_40k", 400_000, time.Nanosecond, func() func(int, timer) { return simEventProbe(40_000) }},
	{"radio.probe_ns_bcast", 40_000, time.Nanosecond, func() func(int, timer) { return radioProbe(true) }},
	{"radio.probe_ns_ucast", 100_000, time.Nanosecond, func() func(int, timer) { return radioProbe(false) }},
	{"network.probe_ns_beacon", 400_000, time.Nanosecond, beaconProbe},
	{"network.probe_ns_route", 100_000, time.Nanosecond, routeProbe},
	{"vm.probe_ns_instr_step", 400_000, time.Nanosecond, func() func(int, timer) { return vmProbe(false) }},
	{"vm.probe_ns_instr_compiled", 1_000_000, time.Nanosecond, func() func(int, timer) { return vmProbe(true) }},
	{"tuplespace.probe_ns_out", 200_000, time.Nanosecond, spaceOutProbe},
	{"tuplespace.probe_ns_rdp_hit", 100_000, time.Nanosecond, func() func(int, timer) { return spaceRdpProbe(true) }},
	{"tuplespace.probe_ns_rdp_miss", 50_000, time.Nanosecond, func() func(int, timer) { return spaceRdpProbe(false) }},
	{"tuplespace.probe_ns_inp", 100_000, time.Nanosecond, spaceInpProbe},
	{"tuplespace.probe_ns_reg_match", 200_000, time.Nanosecond, registryProbe},
	{"replica.probe_us_digest", 40, time.Microsecond, replicaDigestProbe},
	{"replica.probe_us_delta", 40, time.Microsecond, replicaDeltaProbe},
	{"replica.probe_us_merge", 400, time.Microsecond, replicaMergeProbe},
	{"wire.probe_ns_batch_encode", 1_000_000, time.Nanosecond, batchEncodeProbe},
	{"wire.probe_ns_batch_decode", 1_000_000, time.Nanosecond, batchDecodeProbe},
	{"wire.probe_ns_mig_codec", 400_000, time.Nanosecond, migCodecProbe},
}

// runProbes measures every layer probe and returns the numbers by
// per-layer metric name. smoke cuts the iteration counts to a fortieth.
func runProbes(smoke bool) (map[string]float64, error) {
	div := 1
	if smoke {
		div = 40
	}
	out := make(map[string]float64)
	for _, p := range timedProbes {
		out[p.metric] = p.measure(p.iters/div + 1)
	}
	out["wire.probe_allocs_frame"] = batchAllocsPerFrame()
	mix := wireMix(1)
	rate, _, err := floodRate(transport.NewLoopback(loopName()), transport.NewLoopback(loopName()), mix, 200_000/div, 1024)
	if err != nil {
		return nil, fmt.Errorf("loopback probe: %w", err)
	}
	out["transport.loop_frames_per_s"] = rate
	rate, loss, err := floodRate(transport.NewUDP("udp:127.0.0.1:0"), transport.NewUDP("udp:127.0.0.1:0"), mix, 400_000/div, wireWindow)
	if err != nil {
		return nil, fmt.Errorf("udp probe: %w", err)
	}
	out["transport.udp_frames_per_s"], out["transport.udp_loss_frac"] = rate, loss
	return out, nil
}

// --- sim ----------------------------------------------------------------

// simEventProbe: contexts periodic no-op timers, staggered across one
// period; an iteration is one event scheduled and popped.
func simEventProbe(contexts int) func(int, timer) {
	const period = time.Second
	s := sim.New(1)
	side := 1
	for side*side < contexts {
		side++
	}
	for i := 0; i < contexts; i++ {
		ctx := s.Context(sim.Key2D(int16(i%side), int16(i/side)))
		var tick func()
		tick = func() { ctx.Schedule(period, tick) }
		ctx.Schedule(period*time.Duration(i)/time.Duration(contexts), tick)
	}
	return func(n int, _ timer) {
		// Every context fires once a period, so n events take n/contexts
		// periods of virtual time.
		span := time.Duration(float64(period) * float64(n) / float64(contexts))
		if err := s.Run(s.Now() + span); err != nil {
			panic(err)
		}
	}
}

// --- radio --------------------------------------------------------------

type nullReceiver struct{}

func (nullReceiver) ReceiveFrame(radio.Frame) {}

// radioProbe: a 32×32 lossy grid of receivers that do nothing; an
// iteration is one Send plus the delivery events it causes (four for an
// interior broadcast, one for a unicast).
func radioProbe(bcast bool) func(int, timer) {
	const side = 32
	s := sim.New(1)
	m := radio.NewMedium(s, topology.Grid{}, radio.Lossy())
	locs := topology.GridLocations(side, side)
	for _, l := range locs {
		if err := m.Attach(l, nullReceiver{}); err != nil {
			panic(err)
		}
	}
	payload := wire.Beacon{NumAgents: 1}.Encode()
	return func(n int, _ timer) {
		for i := 0; i < n; i++ {
			src := locs[i%len(locs)]
			f := radio.Frame{Src: src, Dst: radio.Broadcast, Kind: radio.KindBeacon, Payload: payload}
			if !bcast {
				f.Dst = topology.Loc(src.X%side+1, src.Y)
				if f.Dst.X == 1 { // wrapped: no such link on a grid
					f.Dst = topology.Loc(src.X-1, src.Y)
				}
			}
			m.Send(f)
			if i%len(locs) == len(locs)-1 {
				if err := s.Run(s.Now() + time.Second); err != nil {
					panic(err)
				}
			}
		}
		if err := s.Run(s.Now() + time.Second); err != nil {
			panic(err)
		}
	}
}

// --- network ------------------------------------------------------------

func probeStack() (*network.Stack, []topology.Location) {
	s := sim.New(1)
	m := radio.NewMedium(s, topology.Grid{Diag: true}, radio.ZeroLoss())
	self := topology.Loc(10, 10)
	st := network.NewStack(s.Context(sim.Key2D(self.X, self.Y)), m, self, network.Config{})
	var nbrs []topology.Location
	topology.Grid{Diag: true}.EnumerateNeighbors(self, func(l topology.Location) { nbrs = append(nbrs, l) })
	beacon := wire.Beacon{NumAgents: 1}.Encode()
	for _, l := range nbrs {
		st.HandleFrame(radio.Frame{Src: l, Dst: radio.Broadcast, Kind: radio.KindBeacon, Payload: beacon})
	}
	return st, nbrs
}

// beaconProbe: one received beacon refreshing one of eight acquaintances.
func beaconProbe() func(int, timer) {
	st, nbrs := probeStack()
	beacon := wire.Beacon{NumAgents: 2}.Encode()
	return func(n int, _ timer) {
		for i := 0; i < n; i++ {
			st.HandleFrame(radio.Frame{Src: nbrs[i%len(nbrs)], Dst: radio.Broadcast, Kind: radio.KindBeacon, Payload: beacon})
		}
	}
}

var sinkLoc topology.Location

// routeProbe: one greedy next-hop choice among eight acquaintances for a
// destination several hops away.
func routeProbe() func(int, timer) {
	st, _ := probeStack()
	return func(n int, _ timer) {
		for i := 0; i < n; i++ {
			sinkLoc, _ = st.NextHop(topology.Loc(int16(1+i%20), int16(1+i%17)))
		}
	}
}

// --- vm -----------------------------------------------------------------

// vmProbe: the straight-line loop `pushc 1; pushc 2; add; pop; rjump`
// against a real node as host, one instruction per iteration, through
// the step interpreter or the compiled closures.
func vmProbe(compiled bool) func(int, timer) {
	d, err := core.NewDeployment(core.DeploymentSpec{Layout: topology.GridLayout(1, 1), Seed: 1})
	if err != nil {
		panic(err)
	}
	host := d.Motes()[0]
	code := []byte{byte(vm.OpPushc), 1, byte(vm.OpPushc), 2, byte(vm.OpAdd), byte(vm.OpPop), byte(vm.OpRjump), 0xFA}
	a := vm.NewAgent(1, code)
	prog, err := vm.Compile(code)
	if err != nil {
		panic(err)
	}
	return func(n int, _ timer) {
		var out vm.Outcome
		for i := 0; i < n; i++ {
			if compiled {
				prog.StepAt(a.PC)(a, host, &out)
			} else {
				out = vm.Step(a, host)
			}
			if out.Effect != vm.EffectNone {
				panic(fmt.Sprintf("vm probe: effect %v: %v", out.Effect, out.Err))
			}
		}
	}
}

// --- tuplespace ---------------------------------------------------------

// probeTuples is how many tuples the match probes scan: a paper-sized
// 600-byte arena about half full.
const probeTuples = 24

func stamp(i int) tuplespace.Tuple {
	return tuplespace.T(tuplespace.Str("vst"), tuplespace.LocV(topology.Loc(int16(i), int16(i))))
}

func filledSpace() *tuplespace.Space {
	s := tuplespace.NewSpace(0)
	for i := 0; i < probeTuples; i++ {
		if err := s.Out(stamp(i)); err != nil {
			panic(err)
		}
	}
	return s
}

// spaceOutProbe: one Out into an arena that is emptied (off the clock)
// whenever it reaches probeTuples.
func spaceOutProbe() func(int, timer) {
	return func(n int, tm timer) {
		s := tuplespace.NewSpace(0)
		for i := 0; i < n; i++ {
			if s.TupleCount() == probeTuples {
				tm.StopTimer()
				s = tuplespace.NewSpace(0)
				tm.StartTimer()
			}
			if err := s.Out(stamp(i % probeTuples)); err != nil {
				panic(err)
			}
		}
	}
}

var sinkOK bool

// spaceRdpProbe: one Rdp over probeTuples tuples, matching the middle
// one or none.
func spaceRdpProbe(hit bool) func(int, timer) {
	s := filledSpace()
	p := tuplespace.Tmpl(tuplespace.Str("vst"), tuplespace.LocV(topology.Loc(probeTuples/2, probeTuples/2)))
	if !hit {
		p = tuplespace.Tmpl(tuplespace.Str("rpt"), tuplespace.TypeV(tuplespace.TypeReading))
	}
	return func(n int, _ timer) {
		for i := 0; i < n; i++ {
			_, sinkOK = s.Rdp(p)
		}
	}
}

// spaceInpProbe: one Inp of a concrete tuple from an arena refilled (off
// the clock) once it is empty, removing in a scrambled order so the scan
// and the shift both average half the arena.
func spaceInpProbe() func(int, timer) {
	return func(n int, tm timer) {
		s := filledSpace()
		for i := 0; i < n; i++ {
			if s.TupleCount() == 0 {
				tm.StopTimer()
				s = filledSpace()
				tm.StartTimer()
			}
			k := i % probeTuples * 7 % probeTuples
			if _, ok := s.Inp(tuplespace.Template(stamp(k))); !ok {
				panic("inp probe: tuple missing")
			}
		}
	}
}

var sinkN int

// registryProbe: one inserted tuple matched against a full registry of
// ten reactions, one of which fires.
func registryProbe() func(int, timer) {
	g := tuplespace.NewRegistry(0, 0)
	for i := 0; i < tuplespace.DefaultRegistryMax; i++ {
		p := tuplespace.Tmpl(tuplespace.Str("fir"), tuplespace.LocV(topology.Loc(int16(i), 1)))
		if err := g.Register(tuplespace.Reaction{AgentID: uint16(i), Template: p, PC: 4}); err != nil {
			panic(err)
		}
	}
	t := tuplespace.T(tuplespace.Str("fir"), tuplespace.LocV(topology.Loc(5, 1)))
	return func(n int, _ timer) {
		for i := 0; i < n; i++ {
			sinkN = len(g.Matching(t))
		}
	}
}

// --- replica ------------------------------------------------------------

// The replica probes use the churn-repl census: 14×14 = 196 origins each
// publishing one marker, into stores capped at 128 entries.
const (
	probeOrigins = 196
	probeEntries = 128
	probeDelta   = 16 // core's per-frame delta cap
)

func originLoc(i int) topology.Location { return topology.Loc(int16(1+i%14), int16(1+i/14)) }

// probeSet holds the markers of origins [from, from+probeEntries).
func probeSet(from, n int) *replica.Set {
	s := replica.NewSet(probeEntries)
	for i := from; i < from+n; i++ {
		s.Add(replica.Origin{Node: originLoc(i % probeOrigins), Seq: 1}, marker(i%probeOrigins))
	}
	return s
}

var sinkDigest []replica.Summary

func replicaDigestProbe() func(int, timer) {
	s := probeSet(0, probeEntries)
	return func(n int, _ timer) {
		for i := 0; i < n; i++ {
			sinkDigest = s.Digest()
		}
	}
}

var sinkEntries []replica.Entry

// replicaDeltaProbe: the delta for a peer whose store overlaps ours by
// 60 of 128 origins.
func replicaDeltaProbe() func(int, timer) {
	s := probeSet(0, probeEntries)
	peer := probeSet(probeOrigins-probeEntries, probeEntries).Digest()
	return func(n int, _ timer) {
		for i := 0; i < n; i++ {
			sinkEntries = s.DeltaFor(peer, probeDelta)
		}
	}
}

// replicaMergeProbe: one capped delta of new entries merged into a store
// rebuilt (off the clock) for every iteration.
func replicaMergeProbe() func(int, timer) {
	var delta []replica.Entry
	for i := probeEntries - probeDelta; i < probeEntries; i++ {
		delta = append(delta, replica.Entry{Origin: replica.Origin{Node: originLoc(i), Seq: 1}, Tuple: marker(i)})
	}
	return func(n int, tm timer) {
		for i := 0; i < n; i++ {
			tm.StopTimer()
			s := probeSet(0, probeEntries-probeDelta)
			tm.StartTimer()
			if added, _ := s.Merge(delta); added != probeDelta {
				panic("merge probe: delta not applied")
			}
		}
	}
}

// --- wire ---------------------------------------------------------------

// batchEncodeProbe: one frame of the border mix added to a pooled batch
// writer, sealed every 32 frames (about one 1400-byte batch).
func batchEncodeProbe() func(int, timer) {
	mix := wireMix(1)
	return func(n int, _ timer) {
		w := wire.GetBatchWriter()
		for i := 0; i < n; i++ {
			if err := w.Add(mix[i%len(mix)]); err != nil {
				panic(err)
			}
			if w.Count() == 32 {
				if _, err := w.Finish(); err != nil {
					panic(err)
				}
				w.Reset()
			}
		}
		wire.PutBatchWriter(w)
	}
}

func encodedBatch() []byte {
	mix := wireMix(1)
	b, err := wire.EncodeBatch(append(mix, mix[:4]...)) // 32 frames
	if err != nil {
		panic(err)
	}
	return b
}

// batchDecodeProbe: one frame decoded, 32 to a batch, into a reused
// scratch slice.
func batchDecodeProbe() func(int, timer) {
	b := encodedBatch()
	return func(n int, _ timer) {
		var scratch []wire.Frame
		for i := 0; i < n; i += 32 {
			var err error
			if scratch, err = wire.DecodeBatchAppend(scratch[:0], b); err != nil {
				panic(err)
			}
		}
	}
}

// migCodecProbe: one migration message through the inner codec, encode
// and decode, alternating the state message and a code block.
func migCodecProbe() func(int, timer) {
	state := wire.StateMsg{AgentID: 7, Seq: 3, Kind: wire.MigStrongMove, Dest: topology.Loc(6, 4), PC: 2, CodeLen: 44, NCode: 2}
	code := wire.CodeMsg{AgentID: 7, Seq: 3, Index: 1}
	return func(n int, _ timer) {
		for i := 0; i < n; i += 2 {
			if _, err := wire.DecodeState(state.Encode()); err != nil {
				panic(err)
			}
			if _, err := wire.DecodeCode(code.Encode()); err != nil {
				panic(err)
			}
		}
	}
}

// batchAllocsPerFrame counts heap allocations per frame through a warm
// batch encode and decode.
func batchAllocsPerFrame() float64 {
	enc, dec := batchEncodeProbe(), batchDecodeProbe()
	var sw stopwatch
	enc(64, &sw)
	dec(64, &sw)
	const frames = 32 * 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	enc(frames, &sw)
	dec(frames, &sw)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / frames
}

// --- transport ----------------------------------------------------------

var loopSeq atomic.Uint64

// loopName returns a fresh loopback address: the registry is global to
// the process.
func loopName() transport.Addr {
	return transport.Addr(fmt.Sprintf("loop:bench-%d", loopSeq.Add(1)))
}

// floodRate pushes frames from src to dst as experiments.Wire does —
// windowed, draining between windows, giving a lossy wire a grace period
// rather than waiting for frames that will not come — and returns the
// delivered rate and the fraction lost.
func floodRate(src, dst transport.Transport, mix []wire.Frame, frames, window int) (rate, loss float64, err error) {
	if err := src.Listen(); err != nil {
		return 0, 0, err
	}
	defer src.Close()
	if err := dst.Listen(); err != nil {
		return 0, 0, err
	}
	defer dst.Close()
	peer := dst.LocalAddr()
	if err := src.Dial(peer); err != nil {
		return 0, 0, err
	}
	received := 0
	drain := func(want, maxIdle int) {
		for idle := 0; received < want && idle < maxIdle; {
			got := 0
			for {
				if _, _, ok := dst.Recv(); !ok {
					break
				}
				got++
			}
			received += got
			if got == 0 {
				idle++
				time.Sleep(200 * time.Microsecond)
			} else {
				idle = 0
			}
		}
	}
	start := time.Now()
	for i := 0; i < frames; i++ {
		if err := src.Send(peer, mix[i%len(mix)]); err != nil {
			return 0, 0, err
		}
		if (i+1)%window == 0 {
			src.Flush()
			drain(i+1-window, 20)
		}
	}
	src.Flush()
	drain(frames, 100)
	wall := time.Since(start).Seconds()
	return float64(received) / wall, float64(frames-received) / float64(frames), nil
}
