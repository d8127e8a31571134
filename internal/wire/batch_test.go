package wire

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"github.com/agilla-go/agilla/internal/topology"
)

// batchWorkload builds n frames over the real per-kind payloads.
func batchWorkload(t testing.TB, n int) []Frame {
	tt, ok := t.(*testing.T)
	if !ok {
		tt = &testing.T{}
	}
	payloads := kindPayloads(tt)
	kinds := make([]uint8, 0, len(payloads))
	for k := range payloads {
		kinds = append(kinds, k)
	}
	frames := make([]Frame, n)
	for i := range frames {
		k := kinds[i%len(kinds)]
		frames[i] = Frame{
			Kind:    k,
			Src:     topology.Loc(int16(i%5), 1),
			Dst:     topology.Loc(int16(i%5), 2),
			Payload: payloads[k],
		}
	}
	return frames
}

func TestBatchRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100} {
		frames := batchWorkload(t, n)
		b, err := EncodeBatch(frames)
		if err != nil {
			t.Fatalf("n=%d: encode: %v", n, err)
		}
		wantLen := BatchOverhead
		for _, f := range frames {
			wantLen += f.RecordLen()
		}
		if len(b) != wantLen {
			t.Fatalf("n=%d: encoded %d bytes, want %d", n, len(b), wantLen)
		}
		out, err := DecodeBatch(b)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if len(out) != n {
			t.Fatalf("n=%d: decoded %d frames", n, len(out))
		}
		for i, f := range out {
			want := frames[i]
			if f.Kind != want.Kind || f.Src != want.Src || f.Dst != want.Dst || !bytes.Equal(f.Payload, want.Payload) {
				t.Fatalf("n=%d: frame %d mangled: %+v", n, i, f)
			}
		}
	}
}

// TestBatchWriterReuse drives the Reset/Finish lifecycle: reuse across
// batches, Finish-twice and Add-after-Finish misuse, empty Finish.
func TestBatchWriterReuse(t *testing.T) {
	w := NewBatchWriter()
	if _, err := w.Finish(); err == nil {
		t.Fatal("Finish on an empty batch must fail")
	}
	frames := batchWorkload(t, 3)
	var first []byte
	for round := 0; round < 3; round++ {
		w.Reset()
		if w.Count() != 0 || w.Size() != BatchOverhead {
			t.Fatalf("after Reset: count %d size %d", w.Count(), w.Size())
		}
		for _, f := range frames {
			if err := w.Add(f); err != nil {
				t.Fatal(err)
			}
		}
		b, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			first = append([]byte(nil), b...)
		} else if !bytes.Equal(first, b) {
			t.Fatalf("round %d encodes differently", round)
		}
		if err := w.Add(frames[0]); err == nil {
			t.Fatal("Add after Finish must fail")
		}
		if _, err := w.Finish(); err == nil {
			t.Fatal("second Finish must fail")
		}
	}
	// Size accounts the container and every record.
	w.Reset()
	_ = w.Add(frames[0])
	if got, want := w.Size(), BatchOverhead+frames[0].RecordLen(); got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	if _, err := EncodeBatch([]Frame{{Payload: make([]byte, MaxFramePayload+1)}}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("oversized payload: err = %v", err)
	}
}

// TestBatchDecodeRejects drives every truncation, every single-byte
// corruption, and trailing garbage through the decoder: all must fail
// with ErrBadMessage, none may panic, and a failed decode must not
// extend the destination slice.
func TestBatchDecodeRejects(t *testing.T) {
	frames := batchWorkload(t, 5)
	b, err := EncodeBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]Frame, 0, 8)
	for n := 0; n < len(b); n++ {
		out, err := DecodeBatchAppend(scratch, b[:n])
		if !errors.Is(err, ErrBadMessage) {
			t.Fatalf("truncation at %d: err = %v", n, err)
		}
		if len(out) != 0 {
			t.Fatalf("truncation at %d extended dst to %d frames", n, len(out))
		}
	}
	for i := range b {
		c := append([]byte(nil), b...)
		c[i] ^= 0x40
		if _, err := DecodeBatch(c); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("corrupt byte %d accepted", i)
		}
	}
	if _, err := DecodeBatch(append(append([]byte(nil), b...), 0)); !errors.Is(err, ErrBadMessage) {
		t.Fatal("trailing garbage accepted")
	}
	// A batch claiming zero frames is rejected even with a valid CRC.
	w := NewBatchWriter()
	_ = w.Add(frames[0])
	zb, _ := w.Finish()
	zb = append([]byte(nil), zb...)
	put16(zb[2:], 0)
	fixCRC(zb)
	if _, err := DecodeBatch(zb); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("empty batch accepted: %v", err)
	}
	// A count claiming more frames than the records present, and fewer,
	// both fail even when the CRC is refreshed.
	for _, count := range []uint16{4, 6, 65535} {
		c := append([]byte(nil), b...)
		put16(c[2:], count)
		fixCRC(c)
		if _, err := DecodeBatch(c); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("count %d over %d records accepted", count, len(frames))
		}
	}
}

// fixCRC recomputes the trailing checksum after test-side surgery.
func fixCRC(b []byte) {
	sum := crc32.ChecksumIEEE(b[:len(b)-4])
	b[len(b)-4] = byte(sum >> 24)
	b[len(b)-3] = byte(sum >> 16)
	b[len(b)-2] = byte(sum >> 8)
	b[len(b)-1] = byte(sum)
}

// TestBatchRandomizedRoundTrip round-trips random frame mixes including
// empty payloads.
func TestBatchRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		frames := make([]Frame, n)
		for i := range frames {
			p := make([]byte, rng.Intn(64))
			rng.Read(p)
			frames[i] = Frame{
				Kind:    uint8(rng.Intn(256)),
				Src:     topology.Loc(int16(rng.Intn(1<<16)-1<<15), int16(rng.Intn(1<<16)-1<<15)),
				Dst:     topology.Loc(int16(rng.Intn(1<<16)-1<<15), int16(rng.Intn(1<<16)-1<<15)),
				Payload: p,
			}
		}
		b, err := EncodeBatch(frames)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i].Kind != frames[i].Kind || out[i].Src != frames[i].Src ||
				out[i].Dst != frames[i].Dst || !bytes.Equal(out[i].Payload, frames[i].Payload) {
				t.Fatalf("trial %d frame %d mangled", trial, i)
			}
		}
	}
}

// FuzzBatchDecode proves the batch decoder never panics and that
// whatever it accepts re-encodes byte-identical and carries payloads the
// inner codecs survive (fuzzDecode). Seeds cover valid batches plus
// truncated, overlength, and CRC-flipped variants, and the lone frames
// FuzzFrameDecode starts from.
func FuzzBatchDecode(f *testing.F) {
	frames := batchWorkload(&testing.T{}, 6)
	for _, n := range []int{1, 3, 6} {
		b, err := EncodeBatch(frames[:n])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])            // truncated
		f.Add(append(b, 0xEE))         // overlength
		c := append([]byte(nil), b...) // CRC-flipped
		c[len(c)-1] ^= 0xFF
		f.Add(c)
	}
	f.Add([]byte{})
	f.Add([]byte{BatchMagic, BatchVersion, 0, 1})
	loneFrameSeeds(f)
	f.Fuzz(fuzzDecode)
}

// BenchmarkBatchEncodeDecode pins the pooled hot path — Get, Add xN,
// Finish, DecodeBatchAppend into a reused slice, Put — at zero heap
// allocations per batch once the pool is warm.
func BenchmarkBatchEncodeDecode(b *testing.B) {
	frames := batchWorkload(b, 43) // ~an MTU's worth of the bench mix
	scratch := make([]Frame, 0, 64)
	roundTrip := func() {
		w := GetBatchWriter()
		for _, f := range frames {
			if err := w.Add(f); err != nil {
				b.Fatal(err)
			}
		}
		enc, err := w.Finish()
		if err != nil {
			b.Fatal(err)
		}
		scratch, err = DecodeBatchAppend(scratch[:0], enc)
		if err != nil {
			b.Fatal(err)
		}
		PutBatchWriter(w)
	}
	roundTrip() // warm the pool and the scratch slice outside the measurement
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		b.Fatalf("batch round trip allocates %.1f objects/op, want 0", allocs)
	}
	size := BatchOverhead
	for _, f := range frames {
		size += f.RecordLen()
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}
