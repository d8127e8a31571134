package agilla

// The process-sharded deployment bridge: phase 1 of the real-wire
// distributed runtime. Two (or more) processes each build the SAME
// topology with the SAME seed, declare which locations they own and which
// a peer serves, and the middleware runs across them — migration,
// remote tuple space operations, and replication gossip cross the wire
// in wire.Batch containers (internal/wire) over a pluggable transport
// (internal/transport: in-memory Loopback, UDP datagrams, or a TCP
// stream). The wire transports coalesce each peer's outbound frames into
// one container per write, sealed at every pump quantum boundary, so
// envelope and syscall costs amortize across border traffic.
//
// The split is by ownership, not by protocol: each process prunes the
// shared layout to its own motes and attaches transparent border ports at
// every peer-owned coordinate. The radio model (loss, airtime, jitter)
// runs once per border hop on the owner of the sending node; the peer
// injects the surviving frame delay-free. See internal/transport for the
// mechanism and the README's "Distributed runtime" section for the
// topology picture.

import (
	"fmt"
	"time"

	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/transport"
)

// BridgePeer names one peer process and the locations it owns. The
// location list must cover everything the peer serves that this process's
// nodes may address — its motes and, if the peer launches agents or
// remote operations of its own, its base station location.
type BridgePeer struct {
	// Addr is the peer's transport address: "udp:host:port" for
	// datagram sockets, "tcp:host:port" for a lossless stream link,
	// "loop:name" for the in-memory loopback transport.
	Addr string
	// Locations are the layout coordinates the peer owns.
	Locations []Location
}

// BridgeConfig configures WithTransportBridge.
type BridgeConfig struct {
	// Listen is this process's transport address, same schemes as
	// BridgePeer.Addr.
	Listen string
	// Peers maps the rest of the field to the processes serving it.
	Peers []BridgePeer
	// BaseLoc relocates this process's base station. Every process runs
	// its own base; when the default (0,0) is owned by a peer — every
	// process but the primary — pick a spot outside the shared layout,
	// far enough away that greedy geographic routing never detours
	// through it (for example Loc(-100, -100)).
	BaseLoc *Location
	// Quantum is the virtual-time step between border pumps while a
	// bridged network runs (default 5ms). Smaller quanta lower the
	// added cross-border latency; larger ones lower pump overhead.
	Quantum time.Duration
}

// WithTransportBridge runs this process as one spatial shard of a larger
// deployment. The topology passed to New must be the full shared field —
// identical, seed and all, in every participating process; the option
// prunes it to the locations no peer claims and bridges the rest over the
// configured transport.
//
// A bridged network trades determinism for scale: virtual time advances
// in quanta paced against the wall clock (the peers execute concurrently
// in real time), and wire delivery order is not reproducible. The
// single-process executor remains the reference oracle; the conformance
// suite in bridge_conformance_test.go holds the two accountable to each
// other.
func WithTransportBridge(cfg BridgeConfig) Option {
	return func(s *settings) { cp := cfg; s.bridge = &cp }
}

// bridgeQuantumDefault is the pump step for bridged runs.
const bridgeQuantumDefault = 5 * time.Millisecond

// planBridge prunes the realized layout to this process's share and
// resolves the peer map. Called from New when WithTransportBridge is set.
func planBridge(layout topology.Layout, cfg *BridgeConfig) (topology.Layout, map[Location]transport.Addr, Location, error) {
	baseLoc := topology.Loc(0, 0)
	if cfg.BaseLoc != nil {
		baseLoc = *cfg.BaseLoc
	}
	peers := make(map[Location]transport.Addr)
	for _, p := range cfg.Peers {
		if p.Addr == "" {
			return layout, nil, baseLoc, fmt.Errorf("agilla: bridge peer with empty address")
		}
		for _, l := range p.Locations {
			if prev, ok := peers[l]; ok && prev != transport.Addr(p.Addr) {
				return layout, nil, baseLoc, fmt.Errorf("agilla: location %v claimed by two peers", l)
			}
			peers[l] = transport.Addr(p.Addr)
		}
	}
	if _, ok := peers[baseLoc]; ok {
		return layout, nil, baseLoc, fmt.Errorf(
			"agilla: base location %v is owned by a peer; set BridgeConfig.BaseLoc for this process", baseLoc)
	}
	local := make([]Location, 0, len(layout.Nodes))
	for _, l := range layout.Nodes {
		if _, remote := peers[l]; !remote {
			local = append(local, l)
		}
	}
	if len(local) == 0 {
		return layout, nil, baseLoc, fmt.Errorf("agilla: bridge peers own every node; nothing left to run here")
	}
	// Prune the node set but keep the full Links topology: geometric
	// connectivity (grids, disks) is derived from coordinates, so border
	// links span the split unchanged.
	layout.Nodes = local
	owned := false
	for _, l := range local {
		if l == layout.Gateway {
			owned = true
			break
		}
	}
	if !owned {
		// The shared layout's gateway lives in a peer process; bridge this
		// base to the local mote nearest it.
		layout.Gateway = local[topology.ClosestTo(baseLoc, local)]
	}
	layout.Name = layout.Name + "/bridged"
	return layout, peers, baseLoc, nil
}

// Bridge is the public handle on a bridged network's border: pump it,
// read its counters, close it. Obtain from Network.Bridge.
type Bridge struct {
	nw *Network
}

// BridgeStats counts border traffic; see Bridge.Stats.
type BridgeStats = transport.BridgeStats

// TransportPeerStats counts per-peer transport traffic; see
// Bridge.TransportStats.
type TransportPeerStats = transport.PeerStats

// Bridge returns the network's transport bridge handle, or nil when the
// network was built without WithTransportBridge.
func (nw *Network) Bridge() *Bridge {
	if nw.bridge == nil {
		return nil
	}
	return &Bridge{nw: nw}
}

// Pump drains frames received from peers into the local radio medium and
// returns how many were injected. Run, RunUntil, WarmUp, and the
// RemoteClient already pump every quantum; call Pump directly only when
// driving the simulation through lower-level entry points.
func (b *Bridge) Pump() int { return b.nw.bridge.Pump() }

// Stats snapshots the border counters.
func (b *Bridge) Stats() BridgeStats { return b.nw.bridge.Stats() }

// TransportStats snapshots the per-peer transport counters, keyed by
// scheme-prefixed peer address.
func (b *Bridge) TransportStats() map[string]TransportPeerStats {
	in := b.nw.bridge.Transport().Stats()
	out := make(map[string]TransportPeerStats, len(in))
	for a, s := range in {
		out[string(a)] = s
	}
	return out
}

// LocalAddr returns the transport address this process listens on (with
// the kernel-chosen port resolved when the configured one was 0).
func (b *Bridge) LocalAddr() string { return string(b.nw.bridge.Transport().LocalAddr()) }

// Owns reports whether loc is served by a peer through this bridge.
func (b *Bridge) Owns(loc Location) bool { return b.nw.bridge.Owns(loc) }

// Close detaches the border and closes the transport. The simulation
// keeps running locally; frames to peer-owned locations are dropped once
// the border is down.
func (b *Bridge) Close() error { return b.nw.bridge.Close() }

// bridgeOwns reports whether a peer serves loc.
func (nw *Network) bridgeOwns(loc Location) bool {
	return nw.bridge != nil && nw.bridge.Owns(loc)
}

// stepBridged advances one quantum of virtual time with a border pump on
// either side. It never sleeps — wall pacing is the caller's (or the idle
// hook's) business — which makes it the building block for co-driving
// several in-process networks from one test or benchmark loop.
func (nw *Network) stepBridged(step time.Duration) error {
	nw.bridge.Pump()
	err := nw.d.Sim.Run(nw.d.Sim.Now() + step)
	nw.bridge.Pump()
	return err
}

// runUntilAt advances virtual time until pred holds or the deadline
// passes, reporting whether pred held. On a bridged network the run is
// chopped into quanta with a border pump between each, and the idle hook
// — by default a 1:1 wall-clock sleep, so concurrently running peer
// processes advance their halves in rough lockstep — runs after every
// quantum. Tests and single-process drivers replace the hook to co-drive
// the peer network instead of sleeping.
func (nw *Network) runUntilAt(pred func() bool, deadline time.Duration) (bool, error) {
	if pred == nil {
		pred = func() bool { return false }
	}
	if nw.bridge == nil {
		return nw.d.Sim.RunUntil(pred, deadline)
	}
	for {
		nw.bridge.Pump()
		if pred() {
			return true, nil
		}
		now := nw.d.Sim.Now()
		if now >= deadline {
			return false, nil
		}
		step := nw.quantum
		if now+step > deadline {
			step = deadline - now
		}
		if _, err := nw.d.Sim.RunUntil(pred, now+step); err != nil {
			return false, err
		}
		if nw.idle != nil {
			nw.idle(step)
		}
	}
}

// defaultBridgeIdle paces a bridged run against the wall clock so peer
// processes get real time to run their halves and answer.
func defaultBridgeIdle(step time.Duration) { time.Sleep(step) }
