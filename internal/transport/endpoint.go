package transport

import (
	"fmt"
	"sync"

	"github.com/agilla-go/agilla/internal/wire"
)

// inboxCap bounds every transport's receive inbox; beyond it the oldest
// frame is dropped and counted as PeerStats.Overrun. Protocol
// retransmission recovers the loss, exactly as it does for radio loss.
const inboxCap = 4096

// inFrame is one received frame awaiting the pump.
type inFrame struct {
	from Addr
	f    wire.Frame
}

// ring is the bounded FIFO behind an endpoint's inbox. It starts empty
// and doubles on demand up to inboxCap — a bridged deployment's inboxes
// are almost always near-empty, so preallocating the cap would dominate
// its live heap — and at the cap a push evicts the oldest frame. Every
// vacated slot is zeroed: a frame's payload aliases the whole datagram
// or record copy it arrived in, which must not stay reachable after the
// frame is popped or evicted.
type ring struct {
	buf  []inFrame // len(buf) is the capacity: zero or a power of two <= inboxCap
	head int
	n    int
}

// push appends in at the tail, returning the evicted head when the ring
// was full at inboxCap.
func (r *ring) push(in inFrame) (evicted inFrame, overrun bool) {
	if r.n == len(r.buf) {
		if r.n == inboxCap {
			evicted, overrun = r.pop()
		} else {
			r.grow()
		}
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = in
	r.n++
	return evicted, overrun
}

// pop removes and returns the oldest frame.
func (r *ring) pop() (inFrame, bool) {
	if r.n == 0 {
		return inFrame{}, false
	}
	in := r.buf[r.head]
	r.buf[r.head] = inFrame{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return in, true
}

func (r *ring) grow() {
	size := 16
	if len(r.buf) > 0 {
		size = 2 * len(r.buf)
	}
	buf := make([]inFrame, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

// endpoint is the core every transport embeds: the state and the half
// of the Transport interface that do not depend on what carries the
// bytes. It owns the lock and the live flag, the per-peer counters, the
// inbox ring that deliver fills and Recv drains, and the table of
// per-peer coalescers that Send feeds and Flush seals. A transport adds
// only its wire: how a sealed batch is written (a sender goroutine per
// dialed peer draining coalescer.out) and how a received record reaches
// deliver. Loopback has no wire to wait on, so it dials no coalescers
// and delivers from its own Send.
type endpoint struct {
	addr Addr // as configured; LocalAddr may resolve a kernel-chosen port

	mu    sync.Mutex
	live  bool
	inbox ring
	stats map[Addr]*PeerStats
	out   map[Addr]*coalescer
	done  chan struct{}  // closed by shut; stops the sender goroutines
	wg    sync.WaitGroup // reader and sender goroutines, waited on by Close
}

func newEndpoint(addr Addr) endpoint {
	return endpoint{
		addr:  addr,
		stats: make(map[Addr]*PeerStats),
		out:   make(map[Addr]*coalescer),
	}
}

// listen runs bind — the transport's own socket or registry set-up —
// and marks the endpoint live, all under the lock so that a second
// Listen fails instead of binding twice.
func (e *endpoint) listen(bind func() error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.live {
		return fmt.Errorf("transport: %q is already listening", e.addr)
	}
	if err := bind(); err != nil {
		return err
	}
	e.done = make(chan struct{})
	e.live = true
	return nil
}

// dial gives addr a coalescer and starts send as the goroutine that
// writes its sealed batches to the wire. Dialing a peer twice is a
// no-op.
func (e *endpoint) dial(addr Addr, send func(co *coalescer, st *PeerStats)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.live {
		return fmt.Errorf("transport: %q is not listening", e.addr)
	}
	if _, ok := e.out[addr]; ok {
		return nil
	}
	st := e.peerStats(addr)
	// onDrop runs under the coalescer's lock; e.mu nests inside it (see
	// the coalescer lock-order note).
	co := newCoalescer(func(frames int) { e.count(&st.Dropped, frames) })
	e.out[addr] = co
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		send(co, st)
	}()
	return nil
}

// Send queues one frame toward a dialed peer without blocking: the frame
// joins the peer's pending batch, and a full batch queue drops its
// oldest batch to admit the new one.
func (e *endpoint) Send(addr Addr, f wire.Frame) error {
	if len(f.Payload) > wire.MaxFramePayload {
		return fmt.Errorf("%w: frame payload %d bytes (max %d)", wire.ErrBadMessage, len(f.Payload), wire.MaxFramePayload)
	}
	e.mu.Lock()
	if !e.live {
		e.mu.Unlock()
		return fmt.Errorf("transport: %q is closed", e.addr)
	}
	co, ok := e.out[addr]
	st := e.peerStats(addr)
	if !ok {
		st.SendErrs++
		e.mu.Unlock()
		return fmt.Errorf("transport: peer %q not dialed", addr)
	}
	st.Sent++
	e.mu.Unlock()
	co.add(f) // encodes the payload under the coalescer lock; f is not retained
	return nil
}

// Flush seals every peer's pending batch so nothing waits out the
// linger timer. The sealed batches are written asynchronously by the
// sender goroutines.
func (e *endpoint) Flush() {
	e.mu.Lock()
	cos := make([]*coalescer, 0, len(e.out))
	for _, co := range e.out {
		cos = append(cos, co)
	}
	e.mu.Unlock()
	for _, co := range cos {
		co.flush()
	}
}

// wrote accounts one attempted wire write of a sealed batch — framing
// is what the transport wraps around the batch bytes — and recycles the
// batch's writer. It reports whether the endpoint has closed, which is
// when a failed write means the sender should exit rather than retry.
func (e *endpoint) wrote(st *PeerStats, ob outBatch, framing int, err error) (closed bool) {
	e.mu.Lock()
	if err != nil {
		st.SendErrs++
		st.Dropped += uint64(ob.frames)
	} else {
		st.Batches++
		st.SentBytes += uint64(framing + len(ob.bytes))
	}
	closed = !e.live
	e.mu.Unlock()
	wire.PutBatchWriter(ob.w)
	return closed
}

// decodePool recycles deliver's decode buffers, so a reader goroutine
// decodes outside the endpoint lock without allocating per record.
var decodePool = sync.Pool{New: func() any { return new([]wire.Frame) }}

// deliver takes one received record — a wire.Batch, exactly as it
// crossed the wire inside framing further bytes — decodes it, counts it
// against from, and pushes its frames into the inbox, evicting the
// oldest on overflow. The decoded payloads alias rec, so the caller must
// hand over a buffer it will not reuse. A record the decoder rejects is
// counted malformed and nothing of it is delivered; deliver then reports
// false, as it does once the endpoint has closed.
func (e *endpoint) deliver(from Addr, rec []byte, framing int) bool {
	buf := decodePool.Get().(*[]wire.Frame)
	frames, err := wire.DecodeBatchAppend((*buf)[:0], rec)
	e.mu.Lock()
	ok := e.live && err == nil
	if ok {
		st := e.peerStats(from)
		st.Recv += uint64(len(frames))
		st.RecvBytes += uint64(framing + len(rec))
		for _, f := range frames {
			if old, overrun := e.inbox.push(inFrame{from: from, f: f}); overrun {
				e.peerStats(old.from).Overrun++
			}
		}
	} else if e.live {
		e.peerStats(from).Malformed++
	}
	e.mu.Unlock()
	clear(frames) // a pooled buffer must not pin rec
	*buf = frames
	decodePool.Put(buf)
	return ok
}

// Recv pops the oldest received frame, non-blocking.
func (e *endpoint) Recv() (Addr, wire.Frame, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	in, ok := e.inbox.pop()
	return in.from, in.f, ok
}

// LocalAddr returns the address the endpoint was configured with.
func (e *endpoint) LocalAddr() Addr { return e.addr }

// Stats snapshots per-peer counters.
func (e *endpoint) Stats() map[Addr]PeerStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[Addr]PeerStats, len(e.stats))
	for a, s := range e.stats {
		out[a] = *s
	}
	return out
}

// shut marks the endpoint closed, drops the inbox, discards every
// pending batch and tells the sender goroutines to stop. It reports
// false when the endpoint was not live, so Close stays idempotent.
func (e *endpoint) shut() bool {
	e.mu.Lock()
	if !e.live {
		e.mu.Unlock()
		return false
	}
	e.live = false
	out := e.out
	e.out = make(map[Addr]*coalescer)
	e.inbox = ring{}
	close(e.done)
	e.mu.Unlock()
	for _, co := range out {
		co.close()
	}
	return true
}

// count adds n to one of a peer's counters.
func (e *endpoint) count(c *uint64, n int) {
	e.mu.Lock()
	*c += uint64(n)
	e.mu.Unlock()
}

// peerStats returns the counter cell for addr; callers hold e.mu.
func (e *endpoint) peerStats(addr Addr) *PeerStats {
	st, ok := e.stats[addr]
	if !ok {
		st = &PeerStats{}
		e.stats[addr] = st
	}
	return st
}
