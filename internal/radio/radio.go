// Package radio models the Chipcon CC1000 radio of the MICA2 mote and the
// shared wireless medium of the paper's 25-mote testbed.
//
// The model has two parts:
//
//   - A latency model: every frame occupies the channel for its airtime at
//     38.4 kbps plus a calibrated per-frame MAC/processing overhead. The
//     overhead constant is what calibrates one-hop remote tuple space
//     operations to the ≈55 ms the paper measures (Figure 11).
//
//   - A loss model: each directed link runs an independent Gilbert–Elliott
//     two-state Markov chain. Indoor CC1000 loss is bursty (Zhao &
//     Govindan, SenSys'03 — the paper's reference [25]); burst loss is what
//     makes hop-by-hop retransmission fail often enough to reproduce the
//     92%-at-5-hops migration reliability of Figure 9. Independent
//     Bernoulli loss would make retransmission nearly perfect and flatten
//     the figure.
//
// Nodes attach to a Medium at a Location (Agilla addresses nodes by
// location, §2.2) and exchange Frames. Delivery respects the configured
// Topology, which for the paper's testbed filters everything except
// immediate grid neighbors (§4).
//
// The medium is driven by a sim.Executor. Each attached location gets a
// scheduling context; a frame's delivery is keyed by the sender's context
// and scheduled onto the receiver's, which is what lets the parallel
// executor replay the sequential schedule exactly. All per-frame
// randomness (loss sampling, processing jitter) draws from a stream owned
// by the directed link, so the values never depend on what other links
// transmitted in between. Statistics and the per-source fan-out records —
// each neighbour's resolved receiver and the link's channel state, by
// value — are held in per-shard arenas: every send executes on the
// sending node's shard, so the arenas are touched without locks.
package radio

import (
	"fmt"
	"sort"
	"time"

	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
)

// Broadcast is the destination address for beacon-style frames heard by all
// connected neighbors.
var Broadcast = topology.Location{X: -32768, Y: -32768}

// FrameKind identifies what a frame carries (analogous to TinyOS Active
// Message types).
type FrameKind uint8

// Frame kinds.
const (
	KindBeacon     FrameKind = 1 // neighbor-discovery beacon
	KindMigrate    FrameKind = 2 // agent migration data (state/code/heap/stack/reaction)
	KindMigrateCtl FrameKind = 3 // migration control (request/grant/ack/commit/abort)
	KindRemoteTS   FrameKind = 4 // remote tuple space request
	KindRemoteTSR  FrameKind = 5 // remote tuple space reply

	KindReplicaDigest FrameKind = 6 // replication anti-entropy digest
	KindReplicaDelta  FrameKind = 7 // replication anti-entropy delta
)

func (k FrameKind) String() string {
	switch k {
	case KindBeacon:
		return "beacon"
	case KindMigrate:
		return "migrate"
	case KindMigrateCtl:
		return "migrate-ctl"
	case KindRemoteTS:
		return "remote-ts"
	case KindRemoteTSR:
		return "remote-ts-reply"
	case KindReplicaDigest:
		return "replica-digest"
	case KindReplicaDelta:
		return "replica-delta"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Frame is one over-the-air message.
type Frame struct {
	Src     topology.Location
	Dst     topology.Location // Broadcast for beacons
	Kind    FrameKind
	Payload []byte
}

// IsBroadcast reports whether the frame is addressed to all neighbors.
func (f Frame) IsBroadcast() bool { return f.Dst == Broadcast }

// Receiver is implemented by anything attached to the medium (motes and the
// base station bridge). A received frame's payload is shared between the
// medium and every receiver of the same broadcast: treat it as read-only.
type Receiver interface {
	ReceiveFrame(f Frame)
}

// Params configures the latency and loss models. ZeroLoss or Lossy provide
// sensible defaults.
type Params struct {
	// BitrateBps is the radio bitrate; the CC1000 runs at up to 38.4 kbps.
	BitrateBps int
	// HeaderBytes and PreambleBytes are per-frame fixed costs added to the
	// payload length when computing airtime.
	HeaderBytes   int
	PreambleBytes int
	// ProcDelay is the per-frame MAC/processing overhead (CSMA backoff,
	// TinyOS task latency, serial copy in/out of the radio chip).
	ProcDelay time.Duration
	// ProcJitter adds a uniform random [0, ProcJitter) to each frame.
	ProcJitter time.Duration

	// Gilbert–Elliott loss parameters, per directed link, sampled once per
	// frame crossing that link.
	LossGood float64 // loss probability in the good state
	LossBad  float64 // loss probability in the bad (burst) state
	PGoodBad float64 // P(good -> bad) after a frame
	PBadGood float64 // P(bad -> good) after a frame
}

// ZeroLoss returns CC1000 timing with a perfectly reliable channel; used by
// unit tests and the Figure 12 local-instruction benchmarks.
func ZeroLoss() Params {
	p := Lossy()
	p.LossGood, p.LossBad, p.PGoodBad = 0, 0, 0
	p.ProcJitter = 0
	return p
}

// Lossy returns the calibrated testbed model used to regenerate the
// paper's figures. Calibration rationale is recorded in README.md
// ("Reproducing the paper", Calibration).
func Lossy() Params {
	return Params{
		BitrateBps:    38400,
		HeaderBytes:   7,
		PreambleBytes: 8,
		ProcDelay:     18 * time.Millisecond,
		ProcJitter:    4 * time.Millisecond,
		LossGood:      0.005,
		LossBad:       0.62,
		PGoodBad:      0.006,
		PBadGood:      0.20,
	}
}

// Airtime returns how long a frame with the given payload length occupies
// the channel, excluding processing overhead.
func (p Params) Airtime(payloadLen int) time.Duration {
	bits := (p.HeaderBytes + p.PreambleBytes + payloadLen) * 8
	return time.Duration(float64(bits) / float64(p.BitrateBps) * float64(time.Second))
}

// FrameDelay returns the full modelled latency for one frame hop, before
// jitter.
func (p Params) FrameDelay(payloadLen int) time.Duration {
	return p.Airtime(payloadLen) + p.ProcDelay
}

// randomized reports whether the parameters draw any per-frame randomness
// (loss or jitter). A non-randomized medium (ZeroLoss) allocates no link
// state at all.
func (p Params) randomized() bool {
	return p.ProcJitter > 0 || p.LossGood > 0 || (p.LossBad > 0 && p.PGoodBad > 0)
}

// saltLink namespaces per-link streams within the seed's stream space.
const saltLink = 0x6c696e6b // "link"

// Stats counts medium activity; read it after a run for the E9 comparison
// and general diagnostics.
type Stats struct {
	Sent      uint64 // frames offered to the medium
	Delivered uint64 // frame receptions (broadcast counts each receiver)
	Dropped   uint64 // receptions lost to the channel
	NoRoute   uint64 // unicast frames with no connected destination
	Bytes     uint64 // payload bytes offered
	Links     uint64 // directed links with live channel state
}

// attachment is one location's registration: its receiver (nil after
// Detach — the context outlives the node so in-flight traffic keyed by it
// stays deterministic) and its scheduling context.
type attachment struct {
	r   Receiver
	ctx *sim.Ctx
}

// link is one directed link out of a fan-out's source: who is at the far
// end and the link's channel state — the Gilbert–Elliott chain position
// and the private random stream both loss sampling and processing jitter
// draw from — by value, so a delivery finds everything it needs in one
// record and hashes nothing.
type link struct {
	to topology.Location
	// bcast: the far end is in the source's broadcast fan-out as of the
	// record's epoch. Links kept only for their channel state (the far end
	// moved out of range, or a unicast found a link the topology grew
	// without telling the medium) are not.
	bcast bool
	// used: the link has carried a frame on a randomized medium, so rng is
	// seeded and the link counts in Stats.Links.
	used bool
	bad  bool        // Gilbert–Elliott state
	a    *attachment // the attachment at to as of the epoch; nil when there is none
	rng  sim.Rand    // seeded at first use from the root seed and the endpoint coordinates alone
}

// fanout is everything the medium keeps about sends from one source
// location: its links in (Y,X) order of their far end. epoch is the medium
// version the broadcast membership and the attachments were resolved
// against; topology mutations (attach, move) bump the medium version
// instead of touching any record, and each record re-resolves itself on its
// source's next send — the incremental invalidation that lets world events
// stay O(1) in the deployment size. Re-resolving never drops a used link:
// its chain position and stream outlive any number of rebuilds, exactly as
// if the state were keyed by the link's coordinates. Detached/dead
// receivers need no invalidation at all: delivery skips them.
type fanout struct {
	epoch uint64
	links []link
}

// pos returns the index of the link to to in the (Y,X) order, or where it
// would be inserted.
func (fo *fanout) pos(to topology.Location) int {
	return sort.Search(len(fo.links), func(i int) bool { return !locLess(fo.links[i].to, to) })
}

// find returns the link to to, or nil.
func (fo *fanout) find(to topology.Location) *link {
	if i := fo.pos(to); i < len(fo.links) && fo.links[i].to == to {
		return &fo.links[i]
	}
	return nil
}

// insert adds l in (Y,X) order and returns its slot.
func (fo *fanout) insert(l link) *link {
	i := fo.pos(l.to)
	fo.links = append(fo.links, link{})
	copy(fo.links[i+1:], fo.links[i:])
	fo.links[i] = l
	return &fo.links[i]
}

func locLess(a, b topology.Location) bool {
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.X < b.X
}

// delivery is one frame in flight: the receiver resolved at send time, the
// frame, and run bound once as the event callback, so a delivery costs the
// kernel's pooled event and this pooled record instead of a closure. It is
// taken from the sending shard's free list and returned to the receiving
// shard's; each list is only ever touched by its owning worker.
type delivery struct {
	r    Receiver
	f    Frame
	home *mediumShard // the receiving shard's arena
	fire func()
}

func (d *delivery) run() {
	r, f := d.r, d.f
	d.r, d.f.Payload = nil, nil // drop the references for the GC
	d.home.free = append(d.home.free, d)
	r.ReceiveFrame(f)
}

// mediumShard is the slice of medium state owned by one executor shard.
// Every field is only touched by sends whose source node lives on the
// shard (free also by the deliveries that end there), so no locking is
// needed even under the parallel executor.
type mediumShard struct {
	stats Stats
	fan   map[topology.Location]*fanout // by source location
	free  []*delivery
}

// Medium is the shared channel. Construct with NewMedium. Attach and
// Detach may only be called while the executor is paused; Send is called
// from simulation events (or from the host between runs).
type Medium struct {
	ex     sim.Executor
	topo   topology.Topology
	params Params
	random bool
	att    map[topology.Location]*attachment
	sh     []mediumShard
	// version counts topology mutations (attaches, moves). It is written
	// only while no event is executing — at construction, between runs,
	// or from a world event at an executor barrier — and read by sends to
	// validate the per-source fan-out records.
	version uint64

	// Trace, when non-nil, observes every send attempt outcome. Used by
	// the experiment harness to measure delivery without instrumenting
	// the middleware. Under a parallel executor it is invoked
	// concurrently from worker goroutines.
	Trace func(f Frame, to topology.Location, delivered bool)

	// Drop, when non-nil, is consulted before the probabilistic loss
	// model; returning true drops the frame on that link. Tests use it to
	// inject targeted, deterministic loss (e.g. "eat the first remote
	// reply") that the Gilbert–Elliott chain cannot express.
	Drop func(f Frame, to topology.Location) bool
}

// NewMedium creates a medium over the given topology, driven by ex.
func NewMedium(ex sim.Executor, topo topology.Topology, params Params) *Medium {
	m := &Medium{
		ex:     ex,
		topo:   topo,
		params: params,
		random: params.randomized(),
		att:    make(map[topology.Location]*attachment),
		sh:     make([]mediumShard, ex.Shards()),
	}
	for i := range m.sh {
		m.sh[i].fan = make(map[topology.Location]*fanout)
	}
	return m
}

// Stats returns a snapshot of the medium counters, summed across shards.
func (m *Medium) Stats() Stats {
	var t Stats
	for i := range m.sh {
		s := &m.sh[i].stats
		t.Sent += s.Sent
		t.Delivered += s.Delivered
		t.Dropped += s.Dropped
		t.NoRoute += s.NoRoute
		t.Bytes += s.Bytes
		t.Links += s.Links
	}
	return t
}

// Attach registers a receiver at the given location. Attaching twice at the
// same location is a configuration bug and returns an error.
func (m *Medium) Attach(loc topology.Location, r Receiver) error {
	if a, ok := m.att[loc]; ok {
		if a.r != nil {
			return fmt.Errorf("radio: node already attached at %v", loc)
		}
		a.r = r // reattach at a previously vacated location
		return nil
	}
	m.att[loc] = &attachment{r: r, ctx: m.ex.Context(sim.Key2D(loc.X, loc.Y))}
	// A brand-new location invalidates every fan-out that should now
	// include it; bumping the version makes each source re-resolve its own
	// lazily.
	m.version++
	return nil
}

// Detach removes the receiver at loc (a dead mote). Fan-outs stay valid:
// delivery skips vacated locations.
func (m *Medium) Detach(loc topology.Location) {
	if a, ok := m.att[loc]; ok {
		a.r = nil
	}
}

// Move rekeys the attachment at from to to: the mote carried its radio to
// a new coordinate while staying on the air. The attachment keeps its
// scheduling context (the node's ordering identity is its birth location),
// the medium's topology is rekeyed when it is Movable (explicit link
// sets; geometric topologies re-derive connectivity from the new
// coordinates), and the version bump invalidates every fan-out lazily.
//
// Like Attach, Move may only be called while no ordinary event is
// executing: from the host between runs, or from a world event
// (sim.Executor.ScheduleWorldAt), which under a parallel executor runs at
// a barrier with all shards synced to its timestamp.
func (m *Medium) Move(from, to topology.Location) error {
	if from == to {
		return fmt.Errorf("radio: move from %v to itself", from)
	}
	a, ok := m.att[from]
	if !ok || a.r == nil {
		return fmt.Errorf("radio: no node attached at %v", from)
	}
	if b, ok := m.att[to]; ok && b.r != nil {
		return fmt.Errorf("radio: %v is already occupied", to)
	}
	delete(m.att, from)
	m.att[to] = a
	if mv, ok := m.topo.(topology.Movable); ok {
		mv.Rekey(from, to)
	}
	m.version++
	return nil
}

// ctxOf returns the scheduling context keyed to loc, registering one on
// the fly for senders that were never attached (test harness frames).
func (m *Medium) ctxOf(loc topology.Location) *sim.Ctx {
	if a, ok := m.att[loc]; ok {
		return a.ctx
	}
	return m.ex.Context(sim.Key2D(loc.X, loc.Y))
}

// fanoutOf returns the fan-out record for sends from src, building it on
// the source's first send and re-resolving it after a topology mutation.
// The broadcast membership — every ever-attached location connected to
// src — is computed once per source and medium version on the source's
// shard and reused for every subsequent send; re-sorting the whole
// attachment table per beacon was the medium's hottest path.
func (m *Medium) fanoutOf(src topology.Location, sh *mediumShard) *fanout {
	fo := sh.fan[src]
	if fo == nil {
		fo = &fanout{}
		sh.fan[src] = fo
	} else if fo.epoch == m.version {
		return fo
	}
	fo.epoch = m.version
	// Keep what must outlive the rebuild — the links that have carried a
	// frame — and resolve the membership afresh around them.
	kept := fo.links[:0]
	for _, l := range fo.links {
		if l.used {
			l.bcast, l.a = false, m.att[l.to]
			kept = append(kept, l)
		}
	}
	fo.links = kept
	collect := func(loc topology.Location) {
		if loc == src || !m.topo.Connected(src, loc) {
			return
		}
		a, ok := m.att[loc]
		if !ok {
			return
		}
		// Enumerators may emit a candidate twice (e.g. a gateway's base
		// link and its geometric link); the second visit finds the first.
		if l := fo.find(loc); l != nil {
			l.bcast = true
		} else {
			fo.insert(link{to: loc, bcast: true, a: a})
		}
	}
	// Topologies that can enumerate their own candidate neighbors keep
	// this O(degree); otherwise scan every ever-attached location —
	// correct for any topology but quadratic across a large deployment's
	// first broadcasts.
	if en, ok := m.topo.(topology.NeighborEnumerator); !ok || !en.EnumerateNeighbors(src, collect) {
		//lint:maprange links are inserted in (Y, X) order whatever order they are visited in
		for loc := range m.att {
			collect(loc)
		}
	}
	return fo
}

// Send transmits a frame. Unicast frames are delivered to the destination
// node if it is attached and connected to the source; broadcast frames are
// offered to every connected node. Loss is sampled per receiving link.
// Delivery happens after the modelled frame delay.
func (m *Medium) Send(f Frame) {
	src := m.ctxOf(f.Src)
	sh := &m.sh[src.Shard()]
	sh.stats.Sent++
	sh.stats.Bytes += uint64(len(f.Payload))
	fo := m.fanoutOf(f.Src, sh)
	if f.IsBroadcast() {
		if len(f.Payload) > 0 {
			// One defensive copy per broadcast, shared read-only by every
			// receiver; per-receiver copies made beacons O(n²) in payload
			// traffic.
			f.Payload = append([]byte(nil), f.Payload...)
		}
		// Deliver in sorted location order: map iteration order would
		// leak nondeterminism into the loss sampling and event sequence.
		for i := range fo.links {
			if l := &fo.links[i]; l.bcast && l.a != nil && l.a.r != nil {
				m.deliver(f, l, src, sh, true)
			}
		}
		return
	}
	// The topology is asked on every unicast — it is the authority, and a
	// failure-injecting one may sever a link between two sends — but the
	// receiver and the link state come from the fan-out; only a link the
	// record has not met (no such neighbour, or connectivity that grew
	// without a version bump) falls back to the attachment table.
	l := fo.find(f.Dst)
	var a *attachment
	if l != nil {
		a = l.a
	} else {
		a = m.att[f.Dst]
	}
	if a == nil || a.r == nil || !m.topo.Connected(f.Src, f.Dst) {
		sh.stats.NoRoute++
		if m.Trace != nil {
			m.Trace(f, f.Dst, false)
		}
		return
	}
	if l == nil {
		l = fo.insert(link{to: f.Dst, a: a})
	}
	m.deliver(f, l, src, sh, false)
}

// deliver offers one frame to the receiver at the far end of l. copied says
// whether the payload was already snapshotted (broadcast copies once up
// front so all receivers share it); unicast frames snapshot only on actual
// delivery, so dropped frames cost no allocation.
func (m *Medium) deliver(f Frame, l *link, src *sim.Ctx, sh *mediumShard, copied bool) {
	if m.Drop != nil && m.Drop(f, l.to) {
		if m.Trace != nil {
			m.Trace(f, l.to, false)
		}
		sh.stats.Dropped++
		return
	}
	delay := m.params.FrameDelay(len(f.Payload))
	if m.random {
		if !l.used {
			l.used = true
			l.rng = sim.NewRand(m.ex.Seed(), saltLink,
				uint64(sim.Key2D(f.Src.X, f.Src.Y)), uint64(sim.Key2D(l.to.X, l.to.Y)))
			sh.stats.Links++
		}
		if m.sampleLoss(l) {
			if m.Trace != nil {
				m.Trace(f, l.to, false)
			}
			sh.stats.Dropped++
			return
		}
		if m.params.ProcJitter > 0 {
			delay += time.Duration(l.rng.Int63n(int64(m.params.ProcJitter)))
		}
	}
	if m.Trace != nil {
		m.Trace(f, l.to, true)
	}
	sh.stats.Delivered++
	if !copied && len(f.Payload) > 0 {
		f.Payload = append([]byte(nil), f.Payload...) // defensive copy across the air
	}
	var d *delivery
	if n := len(sh.free) - 1; n >= 0 {
		d = sh.free[n]
		sh.free[n] = nil
		sh.free = sh.free[:n]
	} else {
		d = new(delivery)
		d.fire = d.run
	}
	d.r, d.f, d.home = l.a.r, f, &m.sh[l.a.ctx.Shard()]
	src.Send(l.a.ctx, delay, d.fire)
}

// Inject delivers a frame directly to the attachment at f.Dst with no
// loss sampling and no modelled delay. It is the entry point for frames
// that arrive from a peer process over a transport bridge: the sending
// process already ran the full radio model (loss, airtime, jitter) when it
// delivered the frame to its border attachment, so re-running it here
// would charge the channel twice for one hop. Broadcast frames are not
// accepted — the bridge resolves fan-out on the sending side.
//
// Like Attach, Inject may only be called while no ordinary event is
// executing: the bridge pump runs on the host between runs. It returns
// false when no live receiver is attached at f.Dst (the peer's map is
// stale or the node died); the frame is counted as dropped.
func (m *Medium) Inject(f Frame) bool {
	if f.IsBroadcast() {
		return false
	}
	a, ok := m.att[f.Dst]
	dst := m.ctxOf(f.Dst)
	sh := &m.sh[dst.Shard()]
	if !ok || a.r == nil {
		sh.stats.NoRoute++
		return false
	}
	sh.stats.Delivered++
	node := a.r
	a.ctx.Post(func() { node.ReceiveFrame(f) })
	return true
}

// sampleLoss runs one step of the link's Gilbert–Elliott chain and reports
// whether the frame is lost.
func (m *Medium) sampleLoss(l *link) bool {
	var pLoss float64
	if l.bad {
		pLoss = m.params.LossBad
	} else {
		pLoss = m.params.LossGood
	}
	lost := pLoss > 0 && l.rng.Float64() < pLoss
	// State transition after the frame.
	if l.bad {
		if m.params.PBadGood > 0 && l.rng.Float64() < m.params.PBadGood {
			l.bad = false
		}
	} else {
		if m.params.PGoodBad > 0 && l.rng.Float64() < m.params.PGoodBad {
			l.bad = true
		}
	}
	return lost
}
