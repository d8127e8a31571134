package wire

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"github.com/agilla-go/agilla/internal/replica"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

// broadcastLoc mirrors radio.Broadcast (this package cannot import radio).
var broadcastLoc = topology.Location{X: -32768, Y: -32768}

// kindPayloads builds one representative inner payload per radio frame
// kind, each through the real hand-packed codec — the batch envelope must
// carry every one of them unchanged.
func kindPayloads(t *testing.T) map[uint8][]byte {
	t.Helper()
	heap, err := (HeapMsg{AgentID: 9, Seq: 2, Index: 0, Entries: []HeapEntry{
		{Addr: 3, Value: tuplespace.Int(41)},
	}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return map[uint8][]byte{
		1: Beacon{NumAgents: 3}.Encode(),
		2: heap,
		3: (AckMsg{AgentID: 9, Seq: 2, Of: MsgHeap, Index: 0}).Encode(),
		4: Envelope{
			Src: topology.Loc(0, 0), Dst: topology.Loc(4, 2), TTL: 16, Kind: 4,
			Body: RemoteRequest{
				ReqID: 7, Op: OpRrdp, ReplyTo: topology.Loc(0, 0),
				Template: tuplespace.Tmpl(tuplespace.Str("fire")),
			}.Encode(),
		}.Encode(),
		5: Envelope{
			Src: topology.Loc(4, 2), Dst: topology.Loc(0, 0), TTL: 16, Kind: 5,
			Body: RemoteReply{
				ReqID: 7, OK: true,
				Tuple: tuplespace.T(tuplespace.Str("fire"), tuplespace.Int(1)),
			}.Encode(),
		}.Encode(),
		6: ReplicaDigest{Lines: []replica.Summary{
			{Node: topology.Loc(1, 1), AddMax: 4, RemHash: 0xfeed},
		}}.Encode(),
		7: ReplicaDelta{Entries: []replica.Entry{
			{Origin: replica.Origin{Node: topology.Loc(1, 1), Seq: 4},
				Tuple: tuplespace.T(tuplespace.Int(8))},
		}}.Encode(),
	}
}

// soloEnvelope hand-builds the retired one-frame envelope (magic 0xA6,
// 14-byte header, payload, CRC-32) that pre-batching senders would have
// written. Nothing encodes it any more; the tests keep a specimen so the
// decoder and both wire transports are held to rejecting it.
func soloEnvelope(f Frame) []byte {
	b := make([]byte, 14, 18+len(f.Payload))
	b[0], b[1], b[2] = 0xA6, 1, f.Kind
	putLoc(b[4:], f.Src)
	putLoc(b[8:], f.Dst)
	put16(b[12:], uint16(len(f.Payload)))
	b = append(b, f.Payload...)
	sum := crc32.ChecksumIEEE(b)
	return append(b, byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum))
}

// roundTripOne sends f through the codec as a batch of one — what a lone
// frame is on the wire — and returns what comes back.
func roundTripOne(t *testing.T, f Frame) Frame {
	t.Helper()
	b, err := EncodeBatch([]Frame{f})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if want := BatchOverhead + f.RecordLen(); len(b) != want {
		t.Fatalf("one-frame batch is %d bytes, want BatchOverhead+RecordLen = %d", len(b), want)
	}
	out, err := DecodeBatch(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("decoded %d frames, want 1", len(out))
	}
	return out[0]
}

func sameFrame(a, b Frame) bool {
	return a.Kind == b.Kind && a.Src == b.Src && a.Dst == b.Dst && bytes.Equal(a.Payload, b.Payload)
}

// TestFrameRoundTripEveryKind carries each kind's real payload as a lone
// frame and checks the frame and its inner payload survive.
func TestFrameRoundTripEveryKind(t *testing.T) {
	for kind, payload := range kindPayloads(t) {
		f := Frame{Kind: kind, Src: topology.Loc(2, 1), Dst: topology.Loc(3, 1), Payload: payload}
		if kind == 1 {
			f.Dst = broadcastLoc // beacons are broadcast; Broadcast must encode
		}
		if out := roundTripOne(t, f); !sameFrame(out, f) {
			t.Fatalf("kind %d: round trip mangled: %+v", kind, out)
		}
	}
}

// TestFrameRoundTripProperty round-trips randomized lone frames,
// including empty and maximum-size payloads.
func TestFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		n := rng.Intn(200)
		switch i {
		case 0:
			n = 0
		case 1:
			n = MaxFramePayload
		}
		p := make([]byte, n)
		rng.Read(p)
		f := Frame{
			Kind:    uint8(rng.Intn(256)),
			Src:     topology.Loc(int16(rng.Intn(1<<16)-1<<15), int16(rng.Intn(1<<16)-1<<15)),
			Dst:     topology.Loc(int16(rng.Intn(1<<16)-1<<15), int16(rng.Intn(1<<16)-1<<15)),
			Payload: p,
		}
		if out := roundTripOne(t, f); !sameFrame(out, f) {
			t.Fatalf("round trip mangled at %d", i)
		}
	}
	// Oversized payloads are rejected at encode time.
	if _, err := EncodeBatch([]Frame{{Payload: make([]byte, MaxFramePayload+1)}}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("oversized payload: err = %v", err)
	}
}

// TestFrameDecodeRejects drives every truncation and every single-byte
// corruption of a valid lone frame through the decoder: all must fail
// with ErrBadMessage, none may panic. So must the retired solo envelope,
// intact: there is one envelope, and 0xA6 is not it.
func TestFrameDecodeRejects(t *testing.T) {
	f := Frame{Kind: 4, Src: topology.Loc(1, 2), Dst: topology.Loc(3, 4), Payload: []byte{1, 2, 3, 4, 5}}
	b, err := EncodeBatch([]Frame{f})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(b); n++ {
		if _, err := DecodeBatch(b[:n]); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("truncation at %d: err = %v", n, err)
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
	if _, err := DecodeBatch(soloEnvelope(f)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("retired solo envelope: err = %v, want ErrBadMessage", err)
	}
}

// loneFrameSeeds adds each kind's real payload as a batch of one, and the
// retired solo envelope as a bare header and as a whole specimen.
func loneFrameSeeds(f *testing.F) {
	lone := Frame{Kind: 2, Src: topology.Loc(0, 0), Dst: topology.Loc(1, 0)}
	for _, p := range kindPayloads(&testing.T{}) {
		lone.Payload = p
		b, err := EncodeBatch([]Frame{lone})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{0xA6, 1})
	f.Add(soloEnvelope(lone))
}

// FuzzFrameDecode is FuzzBatchDecode started from the lone-frame seeds
// alone: a second way into the one fuzz body, not a second decoder.
func FuzzFrameDecode(f *testing.F) {
	loneFrameSeeds(f)
	f.Fuzz(fuzzDecode)
}

// fuzzDecode is the decoder's fuzz contract: it never panics, rejects
// only with ErrBadMessage, and anything it accepts re-encodes to the same
// bytes. Accepted frames also have their payload pushed through the
// codec for their kind, which must reject garbage with an error rather
// than a panic.
func fuzzDecode(t *testing.T, b []byte) {
	frames, err := DecodeBatch(b)
	if err != nil {
		if !errors.Is(err, ErrBadMessage) {
			t.Fatalf("rejection not wrapping ErrBadMessage: %v", err)
		}
		return
	}
	re, err := EncodeBatch(frames)
	if err != nil {
		t.Fatalf("accepted batch does not re-encode: %v", err)
	}
	if !bytes.Equal(re, b) {
		t.Fatalf("re-encode mismatch:\n  in  %x\n  out %x", b, re)
	}
	for _, fr := range frames {
		switch fr.Kind {
		case 1:
			_, _ = DecodeBeacon(fr.Payload)
		case 2, 3:
			if typ, err := Type(fr.Payload); err == nil {
				switch typ {
				case MsgState:
					_, _ = DecodeState(fr.Payload)
				case MsgCode:
					_, _ = DecodeCode(fr.Payload)
				case MsgHeap:
					_, _ = DecodeHeap(fr.Payload)
				case MsgStack:
					_, _ = DecodeStack(fr.Payload)
				case MsgReaction:
					_, _ = DecodeReaction(fr.Payload)
				case MsgAck:
					_, _ = DecodeAck(fr.Payload)
				}
			}
		case 4, 5:
			if env, err := DecodeEnvelope(fr.Payload); err == nil {
				_, _ = DecodeRemoteRequest(env.Body)
				_, _ = DecodeRemoteReply(env.Body)
			}
		case 6:
			_, _ = DecodeReplicaDigest(fr.Payload)
		case 7:
			_, _ = DecodeReplicaDelta(fr.Payload)
		}
	}
}
