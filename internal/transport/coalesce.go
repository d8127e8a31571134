package transport

import (
	"sync"

	"github.com/agilla-go/agilla/internal/wire"
)

// Per-peer frame coalescing, shared by the UDP and TCP transports. One
// wire write (and one syscall) per frame bounds throughput by
// per-packet cost; the coalescer instead accumulates a peer's outbound
// frames into a wire.Batch and seals it on one of three triggers, all
// on the caller's goroutine:
//
//   - size: the encoded batch would exceed DefaultBatchBytes (MTU-safe,
//     so a UDP batch is one unfragmented datagram);
//   - count: DefaultBatchFrames frames are pending;
//   - Transport.Flush, which seals whatever is pending right now.
//
// There is no timer: a partial batch waits for the next Flush, which the
// bridge makes after every quantum it runs.
//
// Sealed batches queue on a bounded channel drained by the transport's
// per-peer writer: UDP's sender goroutine, or TCP's Flush and sender
// goroutine taking turns (tcp.go). The queue is drop-oldest: when it is
// full the oldest sealed batch is discarded (its frames counted via
// onDrop) to admit the new one — for this traffic new frames carry
// newer protocol state and retransmission regenerates old ones, so
// head drop beats tail drop and either beats blocking the simulation.

const (
	// DefaultBatchBytes is the MTU-safe batch size bound: 1500 less
	// IP+UDP headers, with margin for tunneled paths.
	DefaultBatchBytes = 1400
	// DefaultBatchFrames bounds frames per batch; at the bench
	// workload's ~32-byte records the size bound fires first, so this
	// mostly caps degenerate tiny-frame floods.
	DefaultBatchFrames = 64
	// sendQueueCap bounds each peer's queue of sealed batches.
	sendQueueCap = 256
)

// outBatch is one sealed batch awaiting its write. bytes aliases the
// writer, which the transport returns to the pool after the wire write.
type outBatch struct {
	w      *wire.BatchWriter
	bytes  []byte
	frames int
}

// coalescer accumulates one peer's outbound frames. Lock order: a
// coalescer's mu is always taken before the owning transport's
// stats lock (onDrop runs under mu), never after.
type coalescer struct {
	out chan outBatch
	// ready holds a token once add or flush has sealed a batch, for a
	// writer that pops out only under a lock of its own and so cannot
	// block on out (TCP). One token stands for every batch queued before
	// it is taken. seal leaves none: its caller writes the batch or
	// kicks.
	ready  chan struct{}
	onDrop func(frames int) // called under mu when drop-oldest discards a batch

	mu sync.Mutex
	// The thresholds are the Default* constants; they are fields only
	// so in-package tests can make a seal fire on demand.
	maxBytes  int
	maxFrames int
	w         *wire.BatchWriter // pending, nil when empty
	closed    bool
}

func newCoalescer(onDrop func(frames int)) *coalescer {
	return &coalescer{
		out:       make(chan outBatch, sendQueueCap),
		ready:     make(chan struct{}, 1),
		onDrop:    onDrop,
		maxBytes:  DefaultBatchBytes,
		maxFrames: DefaultBatchFrames,
	}
}

// add appends one frame, sealing on the size or count threshold. The
// frame's payload must already
// be validated (<= wire.MaxFramePayload) and must stay immutable until
// the batch is written; both transports copy-by-encode here, under mu,
// so the caller's payload is not retained.
func (c *coalescer) add(f wire.Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if c.w != nil && c.w.Size()+f.RecordLen() > c.maxBytes {
		c.sealLocked()
		c.kick()
	}
	if c.w == nil {
		c.w = wire.GetBatchWriter()
	}
	if err := c.w.Add(f); err != nil {
		// Unreachable for validated frames; drop rather than poison the batch.
		return
	}
	if c.w.Count() >= c.maxFrames || c.w.Size() >= c.maxBytes {
		c.sealLocked()
		c.kick()
	}
}

// sealLocked finishes the pending batch and queues it, dropping the
// oldest sealed batch when the queue is full. Callers hold mu.
func (c *coalescer) sealLocked() {
	b, err := c.w.Finish()
	if err != nil { // empty writer; nothing to seal
		wire.PutBatchWriter(c.w)
		c.w = nil
		return
	}
	ob := outBatch{w: c.w, bytes: b, frames: c.w.Count()}
	c.w = nil
	for {
		select {
		case c.out <- ob:
			return
		default:
		}
		select {
		case old := <-c.out:
			c.onDrop(old.frames)
			wire.PutBatchWriter(old.w)
		default:
		}
	}
}

// kick leaves a token on ready, unless one is already there.
func (c *coalescer) kick() {
	select {
	case c.ready <- struct{}{}:
	default:
	}
}

// flush seals whatever is pending and wakes the writer; Transport.Flush
// runs it.
func (c *coalescer) flush() {
	if c.seal() {
		c.kick()
	}
}

// seal seals whatever is pending, reporting whether that queued a batch.
func (c *coalescer) seal() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.w == nil || c.w.Count() == 0 {
		return false
	}
	c.sealLocked()
	return true
}

// close discards the pending batch. Batches already
// sealed stay in the queue for the transport to write or abandon.
func (c *coalescer) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.w != nil {
		wire.PutBatchWriter(c.w)
		c.w = nil
	}
}
