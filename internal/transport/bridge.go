package transport

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/wire"
)

// The bridge splits one field across processes. Each process runs an
// ordinary deployment over its own half of the node set; for every
// location the *other* process owns, the bridge attaches a border port to
// the local radio.Medium. Radio-wise a port is indistinguishable from the
// real mote at that coordinate: connectivity comes from the shared
// geometric topology, and the medium's loss, airtime, and jitter models
// run normally on the sending side as a frame is delivered to the port.
// The port then relays the frame — now a survivor of the modelled channel
// — to the peer process, where it is injected loss- and delay-free
// (Medium.Inject) straight to the destination node. The radio model
// therefore runs exactly once per border hop, on the owner of the sending
// node, keeping a split field's channel behavior aligned with the
// single-process oracle.
//
// Broadcasts (beacons) reach every connected border port just like every
// connected mote; each port forwards its copy as a unicast to its own
// location, so the remote mote at that coordinate hears the beacon
// exactly once and cross-border neighbor discovery works without any
// flooding or loop risk. Frames that arrive from the wire are only ever
// injected, never re-sent through the medium, so nothing a peer sends can
// echo back across the wire.
type Bridge struct {
	tr     Transport
	medium *radio.Medium
	peers  map[topology.Location]Addr
	local  map[topology.Location]bool

	mu    sync.Mutex
	stats BridgeStats
}

// BridgeStats counts border traffic.
type BridgeStats struct {
	Relayed   uint64 // frames relayed to peers (post radio model)
	Injected  uint64 // inbound frames delivered into the local medium
	Stale     uint64 // inbound frames whose destination node is gone
	Misrouted uint64 // inbound frames for locations this process does not own
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
	return fmt.Sprintf("relayed %d%s, injected %d%s, stale %d, misrouted %d, send errors %d",
		s.Relayed, kindList(s.RelayedByKind),
		s.Injected, kindList(s.InjectedByKind),
		s.Stale, s.Misrouted, s.SendErrs)
}

// borderPort is the medium attachment standing in for one remote
// location. Delivery schedules ReceiveFrame as an ordinary sim event on
// the port's context, so under a parallel executor ports on different
// shards relay concurrently — the transport and the stats lock carry it.
type borderPort struct {
	b   *Bridge
	loc topology.Location
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
	err := b.tr.Send(b.peers[p.loc], wf)
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
// listening, dials every peer, and attaches one border port per remote
// location. local must list every location this process owns (its motes
// and its base station); peers maps each remote location to the peer
// process serving it. The two sets must be disjoint.
func NewBridge(tr Transport, medium *radio.Medium, local []topology.Location, peers map[topology.Location]Addr) (*Bridge, error) {
	b := &Bridge{
		tr:     tr,
		medium: medium,
		peers:  peers,
		local:  make(map[topology.Location]bool, len(local)),
	}
	for _, l := range local {
		b.local[l] = true
	}
	for l := range peers {
		if b.local[l] {
			return nil, fmt.Errorf("transport: location %v is both local and remote", l)
		}
	}
	if err := tr.Listen(); err != nil {
		return nil, err
	}
	// Deterministic dial and attach order (map range otherwise).
	remotes := make([]topology.Location, 0, len(peers))
	for l := range peers {
		remotes = append(remotes, l)
	}
	sort.Slice(remotes, func(i, j int) bool {
		if remotes[i].Y != remotes[j].Y {
			return remotes[i].Y < remotes[j].Y
		}
		return remotes[i].X < remotes[j].X
	})
	dialed := make(map[Addr]bool)
	for _, l := range remotes {
		if !dialed[peers[l]] {
			if err := tr.Dial(peers[l]); err != nil {
				tr.Close()
				return nil, err
			}
			dialed[peers[l]] = true
		}
		if err := medium.Attach(l, &borderPort{b: b, loc: l}); err != nil {
			tr.Close()
			return nil, fmt.Errorf("transport: border port at %v: %v", l, err)
		}
	}
	return b, nil
}

// Pump flushes pending outbound batches and drains the transport inbox
// into the medium. It must run on the host while the executor is paused
// (between runs): Medium.Inject schedules delivery events, which is
// only legal then. Returns how many frames were injected.
func (b *Bridge) Pump() int {
	// Seal whatever the last quantum queued before waiting on inbound
	// traffic: the pump boundary is the batching epoch, so bridged
	// virtual time never stalls on the coalescer's linger timer.
	b.tr.Flush()
	n := 0
	for {
		_, wf, ok := b.tr.Recv()
		if !ok {
			break
		}
		// b.local is never written after NewBridge: only the counters
		// need the lock.
		local := b.local[wf.Dst]
		f := radio.Frame{Kind: radio.FrameKind(wf.Kind), Src: wf.Src, Dst: wf.Dst, Payload: wf.Payload}
		injected := local && b.medium.Inject(f)
		b.mu.Lock()
		switch {
		case !local:
			b.stats.Misrouted++
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

// Close detaches the border ports and closes the transport. Like Pump,
// host-only: Detach mutates the attachment table.
func (b *Bridge) Close() error {
	for l := range b.peers {
		b.medium.Detach(l)
	}
	return b.tr.Close()
}
