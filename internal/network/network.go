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
		if a.entries[mid].Loc.Compare(loc) < 0 {
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

// Shard is what the stacks of one executor shard share: their
// configuration, the medium they send on, and the scratch every beacon
// and every originated or relayed envelope is encoded into. Events of one
// shard never overlap and the medium copies a payload before a send
// returns, so one buffer serves every stack of the shard; stacks on
// different shards must not share a Shard.
type Shard struct {
	Config // defaults applied; never written once a stack uses it
	Medium *radio.Medium
	tx     []byte
}

// Stack is one node's network layer. It owns beaconing, the acquaintance
// list, and greedy forwarding. Upper layers (internal/core) receive
// non-routing traffic through the handlers below.
//
// Construct with NewStack, or Init one held by value; not safe for
// concurrent use (the simulation is single-threaded).
type Stack struct {
	sim     *sim.Ctx
	port    *radio.Port // the node's attachment, which every frame it sends goes out through
	self    topology.Location
	started bool // (beside self: the two flags fill its padding)
	stopped bool
	shard   *Shard // configuration and transmit scratch, shared by the stacks of one executor shard
	acq     AcquaintanceList
	stats   Stats
	beacon  sim.Timer // the periodic beacon, bound to beaconTick once by Init

	// DeliverRouted receives envelope payloads whose final destination is
	// this node (remote tuple space requests and replies, end-to-end
	// migration messages). env.Body is valid only during the call, like a
	// received payload (radio.Receiver).
	DeliverRouted func(kind radio.FrameKind, env wire.Envelope)
	// DeliverDirect receives non-beacon, non-routed frames (migration data
	// and control, which run their own hop-by-hop protocol). f.Payload is
	// valid only during the call.
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
	st := new(Stack)
	st.Init(s, self, &Shard{Config: cfg.WithDefaults(), Medium: medium})
	return st
}

// Init is NewStack for a Stack its owner holds by value, on the executor
// shard sh serves. sh's Config must already have its defaults applied
// (Config.WithDefaults) and must not change afterwards. The stack takes
// the medium's port at self, which the node's receiver is attached to
// before or after. The acquaintance list gets the room the port's fan-out
// was built with, self's topology degree, which the first beacon
// round fills: hearing a neighbour for the first time allocates nothing,
// and Clear and Expire keep that room.
func (st *Stack) Init(s *sim.Ctx, self topology.Location, sh *Shard) {
	*st = Stack{sim: s, port: sh.Medium.Port(self), self: self, shard: sh, acq: AcquaintanceList{expireAfter: sh.ExpireAfter}}
	if n := st.port.NeighborRoom(); n > 0 {
		st.acq.entries = make([]Neighbor, 0, n)
	}
	st.beacon.Init(s, st.beaconTick)
}

// Self returns this node's location.
func (st *Stack) Self() topology.Location { return st.self }

// SetSelf rebinds the stack to a new location right after
// radio.Medium.Move took the mote there, re-taking the port that Move
// handed the mote's receiver. Future frames originate from the new
// address; the acquaintance list is kept and expires naturally, so
// routing may briefly chase stale geometry, as after a physical move.
func (st *Stack) SetSelf(loc topology.Location) {
	st.self = loc
	st.port = st.shard.Medium.Port(loc)
}

// Acquaintances returns the neighbor table.
func (st *Stack) Acquaintances() *AcquaintanceList { return &st.acq }

// Stats returns a snapshot of the stack counters.
func (st *Stack) Stats() Stats { return st.stats }

// Start begins periodic beaconing. The first beacon goes out after a random
// fraction of the period so co-deployed nodes do not synchronize. A
// stopped stack can Start again (the mote recovered): the acquaintance
// list is cleared — boot RAM is empty — and the beacon timer is re-armed.
func (st *Stack) Start() {
	if st.started && !st.stopped {
		return
	}
	if st.stopped {
		st.acq.Clear()
	}
	st.started, st.stopped = true, false
	st.beacon.Reset(time.Duration(st.sim.Rand().Int63n(int64(st.shard.BeaconEvery))))
}

// Stop halts future beacons (the mote died).
func (st *Stack) Stop() {
	st.stopped = true
	st.beacon.Stop()
}

func (st *Stack) beaconTick() {
	st.SendBeacon()
	st.acq.Expire(st.sim.Now())
	if !st.stopped { // sending the beacon can empty the battery
		st.beacon.Reset(st.shard.BeaconEvery)
	}
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
	st.shard.Medium.SendFrom(st.port, f)
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
	sh := st.shard
	sh.tx = wire.Beacon{NumAgents: uint8(n)}.Append(sh.tx[:0])
	if st.transmit(radio.Frame{Src: st.self, Dst: radio.Broadcast, Kind: radio.KindBeacon, Payload: sh.tx}) {
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
	case radio.KindRemoteTS, radio.KindRemoteTSR, radio.KindMigrateRouted, radio.KindMigrateRoutedCtl:
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
// protocol uses this and supplies its own acknowledgments. The medium
// copies payload before SendDirect returns, so the caller may reuse it at
// once.
func (st *Stack) SendDirect(to topology.Location, kind radio.FrameKind, payload []byte) {
	if st.transmit(radio.Frame{Src: st.self, Dst: to, Kind: kind, Payload: payload}) {
		st.stats.DirectFrames++
	}
}

// ErrNoRoute is returned when greedy forwarding cannot make progress.
var ErrNoRoute = fmt.Errorf("network: no neighbor closer to destination")

// SendRouted originates an envelope toward dst using greedy geographic
// forwarding. If dst is this node the payload is delivered locally (via
// DeliverRouted) without touching the radio. The envelope is encoded into
// the shard's scratch, never into body, so the caller may reuse body once
// SendRouted returns.
func (st *Stack) SendRouted(dst topology.Location, kind radio.FrameKind, body []byte) error {
	env := wire.Envelope{Src: st.self, Dst: dst, TTL: st.shard.TTL, Kind: uint8(kind), Body: body}
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
	_ = st.forward(kind, env) // a relay has nobody to report to; forward counts a stall itself
}

// forward hands env to the next hop. It counts a RouteStall only when no
// neighbour is closer to the destination: a transmitter that browns out
// keying the radio has lost the frame, not stalled the route.
func (st *Stack) forward(kind radio.FrameKind, env wire.Envelope) error {
	hop, ok := st.NextHop(env.Dst)
	if !ok {
		st.stats.RouteStalls++
		return fmt.Errorf("%w: %v -> %v", ErrNoRoute, st.self, env.Dst)
	}
	sh := st.shard
	sh.tx = env.Append(sh.tx[:0])
	if !st.transmit(radio.Frame{Src: st.self, Dst: hop, Kind: kind, Payload: sh.tx}) {
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
