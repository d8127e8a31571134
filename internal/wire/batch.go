package wire

import (
	"fmt"
	"hash/crc32"
	"sync"
)

// The batch container: what actually crosses a process boundary when
// two deployments peer over a real transport (internal/transport), and
// the only envelope there is. The in-process medium hands receivers a
// radio.Frame struct directly; on the wire the frames a sender has
// accumulated for one peer travel as a single count-prefixed
// concatenation under a small versioned header and one CRC-32, so a
// peer can validate and safely reject anything malformed or truncated
// without trusting the sender, and the per-packet costs (syscall,
// header, checksum) amortize across the batch. A lone frame is a batch
// of one.
//
// Layout (big-endian), BatchOverhead = 8 bytes around the records:
//
//	offset  size  field
//	0       1     magic (0xA7)
//	1       1     version (1)
//	2       2     frame count N (must be >= 1)
//	4       ...   N frame records, each FrameRecordOverhead = 11 bytes
//	              around its payload:
//	                0   1  kind (the radio frame kind: beacon, migrate, ...)
//	                1   4  src location (int16 X, int16 Y)
//	                5   4  dst location (radio.Broadcast encodes like any other)
//	                9   2  payload length M
//	                11  M  payload (the hand-packed inner codec for kind)
//	end-4   4     CRC-32 (IEEE) over every preceding byte
//
// The checksum is not cryptographic: it catches truncation, corruption,
// and framing bugs, the failure modes a datagram or a mis-framed stream
// actually has. Decoding is strict: truncation anywhere (header,
// mid-record, checksum), trailing garbage, a count that does not match
// the records present, version or magic mismatch, and checksum failure
// are all rejected with ErrBadMessage, and the decoder never panics
// (FuzzBatchDecode holds it to that, plus "whatever you accept
// re-encodes byte-identical").

const (
	// BatchMagic is the first byte of every batch.
	BatchMagic = 0xA7
	// BatchVersion is the batch container version this build speaks.
	BatchVersion = 1
	// batchHeaderLen is the fixed prefix before the frame records.
	batchHeaderLen = 4
	// BatchOverhead is the container cost around the records: header
	// plus trailing checksum.
	BatchOverhead = batchHeaderLen + 4
	// FrameRecordOverhead is the per-frame cost inside a batch: kind,
	// src, dst, payload length.
	FrameRecordOverhead = 11
	// MaxBatchFrames is the largest frame count the 16-bit count field
	// can carry.
	MaxBatchFrames = 1<<16 - 1
)

// RecordLen returns the encoded size of one frame inside a batch.
func (f Frame) RecordLen() int { return FrameRecordOverhead + len(f.Payload) }

// A BatchWriter incrementally encodes one batch. Add appends frame
// records to an internal buffer; Finish seals the container (header and
// CRC) and returns the encoded bytes, which alias the writer and stay
// valid until the next Reset. Writers are reusable and pool-friendly:
// the steady-state encode path — Get, Add xN, Finish, write, Put —
// performs zero heap allocations once the pool is warm (pinned by
// BenchmarkBatchEncodeDecode's AllocsPerRun check).
type BatchWriter struct {
	buf      []byte // batchHeaderLen reserved up front; records follow
	count    int
	finished bool
}

// NewBatchWriter returns an empty writer with some capacity pre-grown.
// Prefer GetBatchWriter on hot paths.
func NewBatchWriter() *BatchWriter {
	w := &BatchWriter{buf: make([]byte, batchHeaderLen, 2048)}
	return w
}

// batchWriterPool recycles writers (and, through them, their buffers)
// across sends; the transports' coalescing paths churn one writer per
// wire write, which without pooling would be one buffer allocation per
// datagram.
var batchWriterPool = sync.Pool{New: func() any { return NewBatchWriter() }}

// GetBatchWriter returns a reset writer from the pool.
func GetBatchWriter() *BatchWriter {
	w := batchWriterPool.Get().(*BatchWriter)
	w.Reset()
	return w
}

// PutBatchWriter returns a writer to the pool. The caller must be done
// with any bytes Finish returned.
func PutBatchWriter(w *BatchWriter) { batchWriterPool.Put(w) }

// Reset discards pending records, keeping the buffer.
func (w *BatchWriter) Reset() {
	w.buf = w.buf[:batchHeaderLen]
	w.count = 0
	w.finished = false
}

// Count returns how many frames are pending.
func (w *BatchWriter) Count() int { return w.count }

// Size returns the encoded batch size if sealed now (records so far
// plus container overhead).
func (w *BatchWriter) Size() int { return len(w.buf) + 4 }

// Add appends one frame record. It fails only on a payload exceeding
// the 16-bit length field or a batch already carrying MaxBatchFrames
// frames; a finished writer must be Reset first.
func (w *BatchWriter) Add(f Frame) error {
	if w.finished {
		return fmt.Errorf("wire: Add on a finished batch (missing Reset)")
	}
	if len(f.Payload) > MaxFramePayload {
		return fmt.Errorf("%w: frame payload %d bytes (max %d)", ErrBadMessage, len(f.Payload), MaxFramePayload)
	}
	if w.count >= MaxBatchFrames {
		return fmt.Errorf("%w: batch full at %d frames", ErrBadMessage, MaxBatchFrames)
	}
	n := len(w.buf)
	w.buf = append(w.buf, make([]byte, FrameRecordOverhead)...)
	rec := w.buf[n:]
	rec[0] = f.Kind
	putLoc(rec[1:], f.Src)
	putLoc(rec[5:], f.Dst)
	put16(rec[9:], uint16(len(f.Payload)))
	w.buf = append(w.buf, f.Payload...)
	w.count++
	return nil
}

// Finish seals the batch and returns its wire bytes, which alias the
// writer. At least one frame must have been added.
func (w *BatchWriter) Finish() ([]byte, error) {
	if w.count == 0 {
		return nil, fmt.Errorf("wire: Finish on an empty batch")
	}
	if w.finished {
		return nil, fmt.Errorf("wire: Finish called twice (missing Reset)")
	}
	w.buf[0] = BatchMagic
	w.buf[1] = BatchVersion
	put16(w.buf[2:], uint16(w.count))
	sum := crc32.ChecksumIEEE(w.buf)
	w.buf = append(w.buf,
		byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum))
	w.finished = true
	return w.buf, nil
}

// EncodeBatch renders frames as one batch container. Convenience form
// of the BatchWriter for tests and one-shot callers; hot paths use the
// pooled writer directly.
func EncodeBatch(frames []Frame) ([]byte, error) {
	w := GetBatchWriter()
	for _, f := range frames {
		if err := w.Add(f); err != nil {
			PutBatchWriter(w)
			return nil, err
		}
	}
	b, err := w.Finish()
	if err != nil {
		PutBatchWriter(w)
		return nil, err
	}
	out := append([]byte(nil), b...)
	PutBatchWriter(w)
	return out, nil
}

// DecodeBatchAppend parses one batch container, appending the embedded
// frames to dst and returning the extended slice. Frame payloads alias
// b — callers whose b outlives the frames (a reused read buffer) must
// copy. Rejections wrap ErrBadMessage; a partially valid batch is
// rejected whole (dst is returned unextended on error).
func DecodeBatchAppend(dst []Frame, b []byte) ([]Frame, error) {
	if len(b) < BatchOverhead+FrameRecordOverhead {
		return dst, fmt.Errorf("%w: batch truncated at %d bytes", ErrBadMessage, len(b))
	}
	if b[0] != BatchMagic {
		return dst, fmt.Errorf("%w: bad batch magic 0x%02x", ErrBadMessage, b[0])
	}
	if b[1] != BatchVersion {
		return dst, fmt.Errorf("%w: unsupported batch version %d", ErrBadMessage, b[1])
	}
	count := int(get16(b[2:]))
	if count == 0 {
		return dst, fmt.Errorf("%w: empty batch", ErrBadMessage)
	}
	sum := crc32.ChecksumIEEE(b[:len(b)-4])
	got := uint32(b[len(b)-4])<<24 | uint32(b[len(b)-3])<<16 |
		uint32(b[len(b)-2])<<8 | uint32(b[len(b)-1])
	if sum != got {
		return dst, fmt.Errorf("%w: batch checksum mismatch", ErrBadMessage)
	}
	body := b[batchHeaderLen : len(b)-4]
	mark := len(dst)
	off := 0
	for i := 0; i < count; i++ {
		if len(body)-off < FrameRecordOverhead {
			return dst[:mark], fmt.Errorf("%w: batch truncated in record %d of %d", ErrBadMessage, i+1, count)
		}
		rec := body[off:]
		n := int(get16(rec[9:]))
		if len(rec) < FrameRecordOverhead+n {
			return dst[:mark], fmt.Errorf("%w: batch record %d payload truncated", ErrBadMessage, i+1)
		}
		f := Frame{
			Kind: rec[0],
			Src:  getLoc(rec[1:]),
			Dst:  getLoc(rec[5:]),
		}
		if n > 0 {
			f.Payload = rec[FrameRecordOverhead : FrameRecordOverhead+n]
		}
		dst = append(dst, f)
		off += FrameRecordOverhead + n
	}
	if off != len(body) {
		return dst[:mark], fmt.Errorf("%w: %d trailing bytes after %d batch records", ErrBadMessage, len(body)-off, count)
	}
	return dst, nil
}

// DecodeBatch parses one batch container into a fresh slice. Payloads
// alias b, as in DecodeBatchAppend.
func DecodeBatch(b []byte) ([]Frame, error) { return DecodeBatchAppend(nil, b) }
