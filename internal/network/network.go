// Package network implements Agilla's network stack on top of the radio:
// one-hop neighbor discovery with beacons, the acquaintance list agents read
// through numnbrs/getnbr/randnbr (§2.2, §3.2 Context Manager), and the
// best-effort greedy geographic forwarding the paper uses for multi-hop
// routing (§4: "a simple best-effort greedy-forwarding algorithm that
// forwards messages to the neighbor closest to the destination").
package network

import (
	"fmt"
	"time"

	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/wire"
)

// Neighbor is one acquaintance-list entry.
type Neighbor struct {
	Loc       topology.Location
	LastHeard time.Duration
	NumAgents uint8
}

// AcquaintanceList is the continuously-updated one-hop neighbor table
// (§2.2: "The one-hop neighbor information is stored in an acquaintance
// list and is continuously updated by Agilla"). The paper bounds it to a
// mote's radio degree — a dozen entries — so it is one slice held in
// (Y,X) order: a beacon from a known neighbor, getnbr, and routing are
// searches and index operations that allocate nothing.
//
// The zero value is not usable; construct with NewAcquaintanceList.
type AcquaintanceList struct {
	expireAfter time.Duration
	entries     []Neighbor // (Y,X)-ordered by Loc
}

// NewAcquaintanceList creates a list whose entries expire when no beacon is
// heard for expireAfter.
func NewAcquaintanceList(expireAfter time.Duration) *AcquaintanceList {
	return &AcquaintanceList{expireAfter: expireAfter}
}

// search returns the index of loc's entry, or where it would be inserted.
func (a *AcquaintanceList) search(loc topology.Location) (int, bool) {
	lo, hi := 0, len(a.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if l := a.entries[mid].Loc; l.Y < loc.Y || (l.Y == loc.Y && l.X < loc.X) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(a.entries) && a.entries[lo].Loc == loc
}

// Update records a beacon heard from loc at virtual time now.
func (a *AcquaintanceList) Update(loc topology.Location, now time.Duration, numAgents uint8) {
	i, ok := a.search(loc)
	if !ok {
		a.entries = append(a.entries, Neighbor{})
		copy(a.entries[i+1:], a.entries[i:])
	}
	a.entries[i] = Neighbor{Loc: loc, LastHeard: now, NumAgents: numAgents}
}

// Expire drops entries not heard from since now-expireAfter.
func (a *AcquaintanceList) Expire(now time.Duration) {
	kept := a.entries[:0]
	for _, e := range a.entries {
		if now-e.LastHeard <= a.expireAfter {
			kept = append(kept, e)
		}
	}
	a.entries = kept
}

// Len returns the number of live neighbors.
func (a *AcquaintanceList) Len() int { return len(a.entries) }

// Neighbors returns the live entries sorted by location (Y then X), so that
// getnbr indices are deterministic. The slice is the list's own: read it,
// and do not hold it across an Update or Expire.
func (a *AcquaintanceList) Neighbors() []Neighbor { return a.entries }

// At returns the i-th neighbor in Neighbors() order.
func (a *AcquaintanceList) At(i int) (Neighbor, bool) {
	if i < 0 || i >= len(a.entries) {
		return Neighbor{}, false
	}
	return a.entries[i], true
}

// Contains reports whether loc is a live neighbor.
func (a *AcquaintanceList) Contains(loc topology.Location) bool {
	_, ok := a.search(loc)
	return ok
}

// Clear drops every entry (the mote rebooted; its RAM is empty).
func (a *AcquaintanceList) Clear() { a.entries = a.entries[:0] }

// Config tunes the stack. Zero fields select defaults.
type Config struct {
	// BeaconEvery is the neighbor-discovery beacon period.
	BeaconEvery time.Duration
	// ExpireAfter drops neighbors not heard from for this long.
	ExpireAfter time.Duration
	// TTL bounds routed-envelope forwarding.
	TTL uint8
}

// Defaults for Config.
const (
	DefaultBeaconEvery = 2 * time.Second
	DefaultExpireAfter = 7 * time.Second
	DefaultTTL         = 16
)

// WithDefaults returns c with every zero field replaced by its default.
func (c Config) WithDefaults() Config {
	if c.BeaconEvery <= 0 {
		c.BeaconEvery = DefaultBeaconEvery
	}
	if c.ExpireAfter <= 0 {
		c.ExpireAfter = DefaultExpireAfter
	}
	if c.TTL == 0 {
		c.TTL = DefaultTTL
	}
	return c
}

// Stats counts stack activity.
type Stats struct {
	BeaconsSent  uint64
	Forwarded    uint64 // routed envelopes relayed for other nodes
	Originated   uint64 // routed envelopes this node created
	DeliveredUp  uint64 // envelopes delivered to the local node
	RouteStalls  uint64 // envelopes dropped: no neighbor closer to dest
	TTLExceeded  uint64 // envelopes dropped: TTL exhausted
	DirectFrames uint64 // one-hop frames sent on behalf of upper layers
}

// Stack is one node's network layer. It owns beaconing, the acquaintance
// list, and greedy forwarding. Upper layers (internal/core) receive
// non-routing traffic through the handlers below.
//
// Construct with NewStack, or Init one held by value; not safe for
// concurrent use (the simulation is single-threaded).
type Stack struct {
	sim    *sim.Ctx
	medium *radio.Medium
	self   topology.Location
	cfg    *Config // defaults applied; shared by every stack of a deployment
	acq    AcquaintanceList
	stats  Stats

	started bool
	stopped bool
	gen     int    // bumped per Start; orphans stale beacon chains
	tickFn  func() // beaconTick as a value, allocated once per Start

	// DeliverRouted receives envelope payloads whose final destination is
	// this node (remote tuple space requests and replies).
	DeliverRouted func(kind radio.FrameKind, env wire.Envelope)
	// DeliverDirect receives non-beacon, non-routed frames (migration data
	// and control, which run their own hop-by-hop protocol).
	DeliverDirect func(f radio.Frame)
	// NumAgents supplies the beacon's co-located agent count.
	NumAgents func() int
	// OnSend, when set, observes every frame this stack offers to the
	// medium (beacons, direct frames, forwarded envelopes) with its
	// payload size. The energy model charges transmission costs here. If
	// the callback takes the node down (battery exhaustion), the frame is
	// not transmitted.
	OnSend func(payloadBytes int)
}

// NewStack attaches a network layer for a node at self. The context must
// be the node's own scheduling context: beacon timers run on it and the
// randomized beacon offset draws from its stream.
func NewStack(s *sim.Ctx, medium *radio.Medium, self topology.Location, cfg Config) *Stack {
	cfg = cfg.WithDefaults()
	st := new(Stack)
	st.Init(s, medium, self, &cfg)
	return st
}

// Init is NewStack for a Stack its owner holds by value. cfg must already
// have its defaults applied (Config.WithDefaults) and must not change
// afterwards; many stacks may share one.
func (st *Stack) Init(s *sim.Ctx, medium *radio.Medium, self topology.Location, cfg *Config) {
	*st = Stack{sim: s, medium: medium, self: self, cfg: cfg, acq: AcquaintanceList{expireAfter: cfg.ExpireAfter}}
}

// Self returns this node's location.
func (st *Stack) Self() topology.Location { return st.self }

// SetSelf rebinds the stack to a new location (the mote moved). Future
// frames originate from the new address; the acquaintance list is kept
// and expires naturally, so routing may briefly chase stale geometry,
// exactly as a physical deployment would after a move.
func (st *Stack) SetSelf(loc topology.Location) { st.self = loc }

// Acquaintances returns the neighbor table.
func (st *Stack) Acquaintances() *AcquaintanceList { return &st.acq }

// Stats returns a snapshot of the stack counters.
func (st *Stack) Stats() Stats { return st.stats }

// Start begins periodic beaconing. The first beacon goes out after a random
// fraction of the period so co-deployed nodes do not synchronize. A
// stopped stack can Start again (the mote recovered): the acquaintance
// list is cleared — boot RAM is empty — and a fresh beacon chain begins;
// any stale chain from the previous life is orphaned by generation.
func (st *Stack) Start() {
	if st.started && !st.stopped {
		return
	}
	if st.stopped {
		st.acq.Clear()
	}
	st.started, st.stopped = true, false
	st.gen++
	gen := st.gen
	st.tickFn = func() { st.beaconTick(gen) }
	offset := time.Duration(st.sim.Rand().Int63n(int64(st.cfg.BeaconEvery)))
	st.sim.Schedule(offset, st.tickFn)
}

// Stop halts future beacons (the mote died).
func (st *Stack) Stop() { st.stopped = true }

func (st *Stack) beaconTick(gen int) {
	if st.stopped || gen != st.gen {
		return
	}
	st.SendBeacon()
	st.acq.Expire(st.sim.Now())
	st.sim.Schedule(st.cfg.BeaconEvery, st.tickFn)
}

// transmit offers one frame to the medium, charging the energy model
// first, and reports whether the frame actually went out. A transmission
// whose energy cost kills the node is lost: the mote browned out keying
// the radio.
func (st *Stack) transmit(f radio.Frame) bool {
	if st.OnSend != nil {
		st.OnSend(len(f.Payload))
		if st.stopped {
			return false
		}
	}
	st.medium.Send(f)
	return true
}

// SendBeacon broadcasts one neighbor-discovery beacon immediately.
func (st *Stack) SendBeacon() {
	n := 0
	if st.NumAgents != nil {
		n = st.NumAgents()
	}
	if n > 255 {
		n = 255
	}
	if st.transmit(radio.Frame{
		Src:     st.self,
		Dst:     radio.Broadcast,
		Kind:    radio.KindBeacon,
		Payload: wire.Beacon{NumAgents: uint8(n)}.Encode(),
	}) {
		st.stats.BeaconsSent++
	}
}

// HandleFrame is the radio receive path; core wires the mote's
// radio.Receiver here.
func (st *Stack) HandleFrame(f radio.Frame) {
	switch f.Kind {
	case radio.KindBeacon:
		b, err := wire.DecodeBeacon(f.Payload)
		if err != nil {
			return // corrupt beacon: ignore
		}
		st.acq.Update(f.Src, st.sim.Now(), b.NumAgents)
	case radio.KindRemoteTS, radio.KindRemoteTSR:
		env, err := wire.DecodeEnvelope(f.Payload)
		if err != nil {
			return
		}
		st.routeOrDeliver(f.Kind, env)
	default:
		if st.DeliverDirect != nil {
			st.DeliverDirect(f)
		}
	}
}

// SendDirect transmits a one-hop frame to a direct neighbor. The migration
// protocol uses this and supplies its own acknowledgments.
func (st *Stack) SendDirect(to topology.Location, kind radio.FrameKind, payload []byte) {
	if st.transmit(radio.Frame{Src: st.self, Dst: to, Kind: kind, Payload: payload}) {
		st.stats.DirectFrames++
	}
}

// ErrNoRoute is returned when greedy forwarding cannot make progress.
var ErrNoRoute = fmt.Errorf("network: no neighbor closer to destination")

// SendRouted originates an envelope toward dst using greedy geographic
// forwarding. If dst is this node the payload is delivered locally (via
// DeliverRouted) without touching the radio.
func (st *Stack) SendRouted(dst topology.Location, kind radio.FrameKind, body []byte) error {
	env := wire.Envelope{Src: st.self, Dst: dst, TTL: st.cfg.TTL, Kind: uint8(kind), Body: body}
	st.stats.Originated++
	if dst == st.self {
		st.stats.DeliveredUp++
		if st.DeliverRouted != nil {
			st.DeliverRouted(kind, env)
		}
		return nil
	}
	return st.forward(kind, env)
}

func (st *Stack) routeOrDeliver(kind radio.FrameKind, env wire.Envelope) {
	if env.Dst == st.self {
		st.stats.DeliveredUp++
		if st.DeliverRouted != nil {
			st.DeliverRouted(kind, env)
		}
		return
	}
	if env.TTL == 0 {
		st.stats.TTLExceeded++
		return
	}
	env.TTL--
	st.stats.Forwarded++
	if err := st.forward(kind, env); err != nil {
		st.stats.RouteStalls++
	}
}

func (st *Stack) forward(kind radio.FrameKind, env wire.Envelope) error {
	hop, ok := st.NextHop(env.Dst)
	if !ok {
		st.stats.RouteStalls++
		return fmt.Errorf("%w: %v -> %v", ErrNoRoute, st.self, env.Dst)
	}
	if !st.transmit(radio.Frame{Src: st.self, Dst: hop, Kind: kind, Payload: env.Encode()}) {
		return fmt.Errorf("network: transmitter browned out forwarding %v -> %v", st.self, env.Dst)
	}
	return nil
}

// NextHop picks the neighbor strictly closer to dst than this node, nearest
// first; ties break toward the lower (Y,X) neighbor for determinism. If dst
// is itself a live neighbor it is always chosen.
func (st *Stack) NextHop(dst topology.Location) (topology.Location, bool) {
	if st.acq.Contains(dst) {
		return dst, true
	}
	self := st.self.Dist(dst)
	best := topology.Location{}
	bestDist := self
	found := false
	for _, n := range st.acq.entries {
		if d := n.Loc.Dist(dst); d < bestDist {
			best, bestDist, found = n.Loc, d, true
		}
	}
	return best, found
}
