package transport

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/wire"
)

// The bridge splits one field across processes. Each process runs an
// ordinary deployment over its own half of the node set; for every
// peer-owned location a local radio can reach, the bridge attaches a
// border port to the local radio.Medium. Radio-wise a port is
// indistinguishable from the real mote at that coordinate: connectivity
// comes from the shared geometric topology, and the medium's loss,
// airtime, and jitter models run normally on the sending side as a frame
// is delivered to the port. The port then relays the frame — now a
// survivor of the modelled channel — to the peer process, where it is
// injected loss- and delay-free (Medium.Inject) straight to the
// destination node. The radio model therefore runs exactly once per
// border hop, on the owner of the sending node, keeping a split field's
// channel behavior aligned with the single-process oracle.
//
// Ports sit only on the border ring: the peer-owned locations that are
// topology neighbours of a local location (a mote or the base). A port
// no local radio reaches would never carry a frame, yet costs a
// scheduling context and an attachment, so a shard pays for its own
// motes and its ring, not for the whole field. The ring is found through
// topology.NeighborEnumerator in O(local × degree); a topology that
// cannot enumerate (Disk) gets a port at every peer-owned location, as a
// scan for its ring would be O(local × remote). A local mote about to
// move extends the ring around its target first (AttachNear).
//
// The peer map is the bridge's only location table. A location with a
// port in the medium holds a border port if a peer owns it and a local
// receiver (live or dead) if not, so a mote is local wherever it moves:
// a peer that lists its new coordinate for this process reaches it.
//
// Broadcasts (beacons) reach every connected border port just like every
// connected mote; each port forwards its copy as a unicast to its own
// location, so the remote mote at that coordinate hears the beacon
// exactly once and cross-border neighbor discovery works without any
// flooding or loop risk. Frames that arrive from the wire are only ever
// injected, never re-sent through the medium, so nothing a peer sends can
// echo back across the wire. Ownership is checked at the border: an
// inbound frame whose source is not peer-owned, or is out of radio range
// of its destination, could not have crossed a real border hop, and is
// counted Spoofed and dropped.
type Bridge struct {
	tr     Transport
	medium *radio.Medium
	topo   topology.Topology
	peers  map[topology.Location]Addr
	// closed: the border is down, so AttachNear adds no port.
	closed bool

	mu    sync.Mutex
	stats BridgeStats
}

// BridgeStats counts border traffic.
type BridgeStats struct {
	Relayed   uint64 // frames relayed to peers (post radio model)
	Injected  uint64 // inbound frames delivered into the local medium
	Stale     uint64 // inbound frames for a receiver attached here and since detached
	Misrouted uint64 // inbound frames for a peer-owned location, one never attached here, or one a move vacated
	Spoofed   uint64 // inbound frames from a source no peer owns or out of range of their destination
	SendErrs  uint64 // transport send failures

	// RelayedByKind and InjectedByKind break the two traffic counters
	// down by frame kind (radio.FrameKind indexes; kinds past the array
	// share the last bucket). String renders them by name.
	RelayedByKind  [32]uint64
	InjectedByKind [32]uint64
}

// kindBucket maps a frame kind to its counter slot.
func kindBucket(k uint8) int {
	if int(k) < len(BridgeStats{}.RelayedByKind) {
		return int(k)
	}
	return len(BridgeStats{}.RelayedByKind) - 1
}

// kindList renders the non-zero buckets as "(beacon 12, migrate 3)".
func kindList(a [32]uint64) string {
	var parts []string
	for k, n := range a {
		if n != 0 {
			parts = append(parts, fmt.Sprintf("%s %d", radio.FrameKind(k), n))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return " (" + strings.Join(parts, ", ") + ")"
}

// String renders the border counters for status lines, naming frame
// kinds via radio.FrameKind.String rather than raw codes.
func (s BridgeStats) String() string {
	return fmt.Sprintf("relayed %d%s, injected %d%s, stale %d, misrouted %d, spoofed %d, send errors %d",
		s.Relayed, kindList(s.RelayedByKind),
		s.Injected, kindList(s.InjectedByKind),
		s.Stale, s.Misrouted, s.Spoofed, s.SendErrs)
}

// borderPort is the medium attachment standing in for one remote
// location, served by the peer at peer. Delivery schedules ReceiveFrame
// as an ordinary sim event on the port's context, so under a parallel
// executor ports on different shards relay concurrently — the transport
// and the stats lock carry it.
type borderPort struct {
	b    *Bridge
	loc  topology.Location
	peer Addr
}

// ReceiveFrame relays one locally-transmitted frame across the wire.
func (p *borderPort) ReceiveFrame(f radio.Frame) {
	b := p.b
	if _, remote := b.peers[f.Src]; remote {
		// A frame sourced at a peer-owned location reached a port: only
		// possible through direct medium writes bypassing Inject. Never
		// relay it — that is the loop the ownership rule forbids.
		return
	}
	dst := f.Dst
	if f.IsBroadcast() {
		dst = p.loc // each port claims its own copy of a broadcast
	}
	wf := wire.Frame{Kind: uint8(f.Kind), Src: f.Src, Dst: dst, Payload: f.Payload}
	err := b.tr.Send(p.peer, wf)
	b.mu.Lock()
	if err != nil {
		b.stats.SendErrs++
	} else {
		b.stats.Relayed++
		b.stats.RelayedByKind[kindBucket(wf.Kind)]++
	}
	b.mu.Unlock()
}

// NewBridge wires a transport into a medium: it starts the transport
// listening, dials every peer, and attaches a border port at each
// peer-owned location on the border ring — a topology neighbour of some
// local location — or, when the medium's topology cannot enumerate
// neighbours, at every peer-owned location. local must list every
// location this process owns (its motes and its base station); it seeds
// the ring and is checked against peers, not kept. peers maps each remote
// location to the peer process serving it, and stays whole: Owns answers
// for every entry. The two sets must be disjoint.
func NewBridge(tr Transport, medium *radio.Medium, local []topology.Location, peers map[topology.Location]Addr) (*Bridge, error) {
	b := &Bridge{
		tr:     tr,
		medium: medium,
		topo:   medium.Topology(),
		peers:  peers,
	}
	for _, l := range local {
		if _, remote := peers[l]; remote {
			return nil, fmt.Errorf("transport: location %v is both local and remote", l)
		}
	}
	if err := tr.Listen(); err != nil {
		return nil, err
	}
	// Deterministic dial order (map range otherwise).
	var addrs []Addr
	dialed := make(map[Addr]bool)
	for _, a := range peers {
		if !dialed[a] {
			dialed[a] = true
			addrs = append(addrs, a)
		}
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		if err := tr.Dial(a); err != nil {
			tr.Close()
			return nil, err
		}
	}
	ring, ok := b.near(local)
	if !ok {
		ring = make([]topology.Location, 0, len(peers))
		for l := range peers {
			ring = append(ring, l)
		}
		slices.SortFunc(ring, topology.Location.Compare)
	}
	if err := b.attach(ring); err != nil {
		tr.Close()
		return nil, err
	}
	return b, nil
}

// near returns the peer-owned locations without a port yet that a radio
// at one of from reaches, in (Y, X) order, so attach order follows
// neither map nor enumeration order; ok is false when the topology
// cannot enumerate the neighbours of some location in from.
func (b *Bridge) near(from []topology.Location) (out []topology.Location, ok bool) {
	en, ok := b.topo.(topology.NeighborEnumerator)
	if !ok {
		return nil, false
	}
	var src topology.Location
	visit := func(c topology.Location) {
		if _, remote := b.peers[c]; remote && !b.medium.Attached(c) && b.topo.Connected(src, c) {
			out = append(out, c) // a location beside two of from comes twice
		}
	}
	for _, src = range from {
		if !en.EnumerateNeighbors(src, visit) {
			return nil, false
		}
	}
	slices.SortFunc(out, topology.Location.Compare)
	return slices.Compact(out), true
}

// attach puts a border port at each of locs.
func (b *Bridge) attach(locs []topology.Location) error {
	for _, l := range locs {
		if err := b.medium.Attach(l, &borderPort{b: b, loc: l, peer: b.peers[l]}); err != nil {
			return fmt.Errorf("transport: border port at %v: %v", l, err)
		}
	}
	return nil
}

// AttachNear extends the ring around loc: it attaches a border port at
// each peer-owned location a radio at loc reaches that has none yet, so
// a local mote moving to loc relays to them. Like Attach, host-only.
func (b *Bridge) AttachNear(loc topology.Location) error {
	near, ok := b.near([]topology.Location{loc})
	if !ok || b.closed {
		// A topology that cannot enumerate got a port at every
		// peer-owned location from NewBridge.
		return nil
	}
	return b.attach(near)
}

// Pump flushes pending outbound batches and drains the transport inbox
// into the medium. It must run on the host while the executor is paused
// (between runs): Medium.Inject schedules delivery events, which is
// only legal then. Returns how many frames were injected.
func (b *Bridge) Pump() int {
	// Seal whatever the last quantum queued before taking inbound
	// traffic: a partial batch waits for a Flush, never for a timer.
	b.tr.Flush()
	n := 0
	for {
		_, wf, ok := b.tr.Recv()
		if !ok {
			break
		}
		// The medium, b.peers and the topology are not written while
		// the host pumps: only the counters need the lock.
		_, remote := b.peers[wf.Dst]
		local := !remote && b.medium.Attached(wf.Dst)
		spoofed := local && !b.fromPeer(wf.Src, wf.Dst)
		f := radio.Frame{Kind: radio.FrameKind(wf.Kind), Src: wf.Src, Dst: wf.Dst, Payload: wf.Payload}
		injected := local && !spoofed && b.medium.Inject(f)
		b.mu.Lock()
		switch {
		case !local:
			b.stats.Misrouted++
		case spoofed:
			b.stats.Spoofed++
		case injected:
			b.stats.Injected++
			b.stats.InjectedByKind[kindBucket(wf.Kind)]++
			n++
		default:
			b.stats.Stale++
		}
		b.mu.Unlock()
	}
	return n
}

// fromPeer reports whether a frame from src to the local dst could have
// crossed a border hop: a peer owns src, and src's radio reaches dst.
func (b *Bridge) fromPeer(src, dst topology.Location) bool {
	_, remote := b.peers[src]
	return remote && b.topo.Connected(src, dst)
}

// Owns reports whether loc is served by a peer through this bridge.
func (b *Bridge) Owns(loc topology.Location) bool {
	_, ok := b.peers[loc]
	return ok
}

// Stats snapshots the border counters.
func (b *Bridge) Stats() BridgeStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Transport returns the underlying transport (its per-peer stats
// complement BridgeStats).
func (b *Bridge) Transport() Transport { return b.tr }

// Close detaches the border ports it attached — every peer-owned
// location the medium has a port at — and closes the transport. Like
// Pump, host-only: Detach mutates the attachment table.
func (b *Bridge) Close() error {
	b.closed = true
	for l := range b.peers {
		b.medium.Detach(l) // a no-op off the ring
	}
	return b.tr.Close()
}
