// Package transport moves enveloped frames (internal/wire.Frame) between
// processes. It is the first real-wire layer under the simulated radio: a
// deployment that owns half a field attaches a transport.Bridge to its
// radio.Medium, and frames addressed to the other half cross a Transport
// instead of the in-process attachment table.
//
// Three implementations ship: Loopback, an in-memory registry used by
// the conformance suite (deterministic — no goroutines, no clocks,
// delivery happens synchronously into the peer's inbox and is drained
// by an explicit pump); UDP, a real datagram transport (reader
// goroutine, per-peer send queues with drop-oldest backpressure);
// and TCP, a stream transport for lossless inter-shard links
// (length-prefixed batch records, per-peer connections with
// reconnect-on-error, Nagle disabled in favor of our own batching). All
// three embed one endpoint core (endpoint.go) — inbox, counters,
// Send/Flush/Recv/Stats, malformed-record accounting — and present the
// same poll-style interface, so the bridge and the conformance driver
// are transport-agnostic. On unix the caller drives TCP reception: no
// goroutine reads an accepted socket, and a Recv on an empty inbox
// reads what the sockets already hold. A TCP Flush writes the batches
// it seals to the sockets itself, without blocking, so a flushed frame
// does not wait for a sender goroutine to wake either.
//
// There is one wire path: every write is a wire.Batch container. UDP
// and TCP coalesce each peer's outbound frames (see coalesce.go for
// what seals a batch) so envelope and syscall costs amortize across
// frames instead of being paid per frame; Loopback sends batches of
// one.
//
// Everything here runs on wall-clock threads, outside the deterministic
// simulation kernel. The boundary discipline is: transports never touch
// the medium; the bridge injects received frames only from the host
// between runs (Medium.Inject), which is what keeps the in-process
// executor's determinism suite byte-identical with a bridge attached.
package transport

import (
	"fmt"
	"strings"

	"github.com/agilla-go/agilla/internal/wire"
)

// Addr names a transport endpoint, scheme-prefixed: "udp:host:port",
// "tcp:host:port" or "loop:name". The scheme travels with the address so
// peer lists in configuration stay self-describing.
type Addr string

// PeerStats counts traffic exchanged with one peer (or, for receive-side
// counters, attributed to the sending peer's address).
type PeerStats struct {
	Sent      uint64 // frames accepted for send
	SentBytes uint64 // encoded bytes written to the wire (batch container included)
	Batches   uint64 // batches written (datagrams / stream records) carrying those bytes
	Dropped   uint64 // frames dropped by send-queue backpressure (oldest first) or lost with a failed write
	Recv      uint64 // frames received and decoded
	RecvBytes uint64 // encoded bytes received
	Overrun   uint64 // received frames evicted unread from the full inbox (oldest first)
	Malformed uint64 // datagrams or stream records rejected by the decoder
	SendErrs  uint64 // socket write or connect failures
}

// FramesPerBatch reports the average frames carried per batch written —
// the coalescing payoff — or 0 before any batch has been written.
func (s PeerStats) FramesPerBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	written := s.Sent
	if s.Dropped < written {
		written -= s.Dropped
	}
	return float64(written) / float64(s.Batches)
}

// Transport is one process's frame endpoint.
//
// Listen binds the local endpoint; it must be called before Send or
// Recv. Dial prepares a send path to a peer and is idempotent. Send
// queues one frame to a dialed peer and never blocks on the network
// (backpressure drops the oldest queued data instead); the wire
// transports coalesce queued frames into batches, so a frame waits for
// its batch to fill or for the next Flush before it is written. Flush
// seals every peer's pending batch immediately — the bridge calls it
// after every quantum it runs — and, like Send, never blocks on the
// network (it may write what the sockets take at once). Recv pops one
// received frame without blocking — the caller polls; this is
// deliberate, because the simulation side consumes frames from a host
// pump, not from a goroutine. On an empty inbox it may first read what
// the sockets hold, still without blocking, and for TCP on unix that is
// the only read: nothing arrives between calls. Close releases the
// endpoint; Send and Recv on a closed transport fail and report empty,
// respectively.
type Transport interface {
	Listen() error
	Dial(addr Addr) error
	Send(addr Addr, f wire.Frame) error
	Flush()
	Recv() (from Addr, f wire.Frame, ok bool)
	LocalAddr() Addr
	Stats() map[Addr]PeerStats
	Close() error
}

// Open constructs a transport from a scheme-prefixed address: "loop:name"
// for the in-memory loopback, "udp:host:port" for datagram sockets,
// "tcp:host:port" for the lossless stream transport. The endpoint is not
// live until Listen.
func Open(addr Addr) (Transport, error) {
	s := string(addr)
	switch {
	case strings.HasPrefix(s, "loop:"):
		return NewLoopback(addr), nil
	case strings.HasPrefix(s, "udp:"):
		return NewUDP(addr), nil
	case strings.HasPrefix(s, "tcp:"):
		return NewTCP(addr), nil
	default:
		return nil, fmt.Errorf("transport: unknown scheme in %q (want loop:, udp:, or tcp:)", s)
	}
}
