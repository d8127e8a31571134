package transport

import (
	"sync"
	"time"

	"github.com/agilla-go/agilla/internal/wire"
)

// Per-peer frame coalescing, shared by the UDP and TCP transports. One
// wire write (and one syscall) per frame bounds throughput by
// per-packet cost; the coalescer instead accumulates a peer's outbound
// frames into a wire.Batch and seals it when any of three thresholds
// fires:
//
//   - size: the encoded batch would exceed DefaultBatchBytes (MTU-safe,
//     so a UDP batch is one unfragmented datagram);
//   - count: DefaultBatchFrames frames are pending;
//   - time: DefaultBatchLinger has passed since the first pending frame
//     — the bound on added latency when traffic is sparse.
//
// A fourth trigger, Transport.Flush, seals whatever is pending right
// now; the bridge invokes it at every pump quantum boundary so bridged
// virtual time never stalls on the linger timer.
//
// Sealed batches queue on a bounded channel drained by the transport's
// per-peer sender goroutine. The queue is drop-oldest: when it is full
// the oldest sealed batch is discarded (its frames counted via onDrop)
// to admit the new one — for this traffic new frames carry newer
// protocol state and retransmission regenerates old ones, so head drop
// beats tail drop and either beats blocking the simulation.

const (
	// DefaultBatchBytes is the MTU-safe batch size bound: 1500 less
	// IP+UDP headers, with margin for tunneled paths.
	DefaultBatchBytes = 1400
	// DefaultBatchFrames bounds frames per batch; at the bench
	// workload's ~32-byte records the size bound fires first, so this
	// mostly caps degenerate tiny-frame floods.
	DefaultBatchFrames = 64
	// DefaultBatchLinger bounds the latency a lone frame pays waiting
	// for a batch to fill.
	DefaultBatchLinger = 500 * time.Microsecond
	// sendQueueCap bounds each peer's queue of sealed batches.
	sendQueueCap = 256
)

// outBatch is one sealed batch awaiting the sender goroutine. bytes
// aliases the writer, which the sender returns to the pool after the
// wire write.
type outBatch struct {
	w      *wire.BatchWriter
	bytes  []byte
	frames int
}

// coalescer accumulates one peer's outbound frames. Lock order: a
// coalescer's mu is always taken before the owning transport's
// stats lock (onDrop runs under mu), never after.
type coalescer struct {
	out    chan outBatch
	onDrop func(frames int) // called under mu when drop-oldest discards a batch

	mu sync.Mutex
	// The thresholds are the Default* constants; they are fields only
	// so in-package tests can make a seal fire on demand.
	maxBytes  int
	maxFrames int
	linger    time.Duration
	w         *wire.BatchWriter // pending, nil when empty
	timer     *time.Timer       // linger; nil until first armed
	closed    bool
}

func newCoalescer(onDrop func(frames int)) *coalescer {
	return &coalescer{
		out:       make(chan outBatch, sendQueueCap),
		onDrop:    onDrop,
		maxBytes:  DefaultBatchBytes,
		maxFrames: DefaultBatchFrames,
		linger:    DefaultBatchLinger,
	}
}

// add appends one frame, sealing on the size or count threshold and
// arming the linger timer otherwise. The frame's payload must already
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
		return
	}
	if c.w.Count() == 1 {
		if c.timer == nil {
			c.timer = time.AfterFunc(c.linger, c.flush)
		} else {
			c.timer.Reset(c.linger)
		}
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

// flush seals whatever is pending. Runs from the linger timer and from
// Transport.Flush.
func (c *coalescer) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.w == nil || c.w.Count() == 0 {
		return
	}
	c.sealLocked()
}

// close stops the timer and discards the pending batch. Batches already
// sealed stay in the queue for the sender goroutine to drain or abandon.
func (c *coalescer) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.timer != nil {
		c.timer.Stop()
	}
	if c.w != nil {
		wire.PutBatchWriter(c.w)
		c.w = nil
	}
}
