package wire

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/agilla-go/agilla/internal/replica"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

// FuzzPayloadDecode holds every payload codec to three rules on any
// input: decoding never panics and rejects only with ErrBadMessage; a
// decoded value re-encodes with Append to bytes that decode to the same
// value; and Append never disturbs the bytes of dst in front of what it
// appends. The first input byte picks the codec and the rest is the
// payload. CI runs it as a 20 s smoke job.
func FuzzPayloadDecode(f *testing.F) {
	for i, c := range payloadCodecs {
		for _, seed := range c.seeds {
			f.Add(append([]byte{byte(i)}, seed...))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		payloadCodecs[int(in[0])%len(payloadCodecs)].check(t, in[1:])
	})
}

// payloadCodec is one payload format under FuzzPayloadDecode: its seed
// encodings and the check of the three rules against one input.
type payloadCodec struct {
	seeds [][]byte
	check func(t *testing.T, b []byte)
}

var payloadCodecs = []payloadCodec{
	codec("beacon", DecodeBeacon, infallible(Beacon.Append), Beacon{NumAgents: 3}),
	codec("envelope", DecodeEnvelope, infallible(Envelope.Append),
		Envelope{Src: topology.Loc(1, 2), Dst: topology.Loc(5, 1), TTL: 12, Kind: 4, Body: []byte{1, 2, 3}}),
	codec("remote request", func(b []byte) (RemoteRequest, error) { return DecodeRemoteRequest(b, nil) }, infallible(RemoteRequest.Append),
		RemoteRequest{ReqID: 9, Op: OpRout, ReplyTo: topology.Loc(2, 3), Tuple: tuplespace.T(tuplespace.Str("fir"), tuplespace.Int(4))},
		RemoteRequest{ReqID: 10, Op: OpRinp, Template: tuplespace.Tmpl(tuplespace.TypeV(tuplespace.TypeLocation))}),
	codec("remote reply", func(b []byte) (RemoteReply, error) { return DecodeRemoteReply(b, nil) }, infallible(RemoteReply.Append),
		RemoteReply{ReqID: 4, OK: true, Tuple: tuplespace.T(tuplespace.LocV(topology.Loc(3, 3)))},
		RemoteReply{ReqID: 5}),
	codec("replica digest", DecodeReplicaDigest, infallible(ReplicaDigest.Append),
		ReplicaDigest{Reply: true, Lines: []replica.Summary{{Node: topology.Loc(1, 2), AddMax: 7, RemHash: 0xdeadbeef}}}),
	codec("replica delta", DecodeReplicaDelta, infallible(ReplicaDelta.Append),
		ReplicaDelta{Entries: []replica.Entry{
			{Origin: replica.Origin{Node: topology.Loc(5, 5), Seq: 3}, Tuple: tuplespace.T(tuplespace.Str("sv"), tuplespace.Int(12))},
			{Origin: replica.Origin{Node: topology.Loc(2, 1), Seq: 9}, Removed: true},
		}}),
	codec("state", DecodeState, infallible(StateMsg.Append),
		StateMsg{AgentID: 0x1234, Seq: 7, Kind: MigStrongClone, Dest: topology.Loc(5, 1), PC: 30, CodeLen: 44,
			Cond: -2, SP: 9, NCode: 2, NHeap: 1, NRxn: 2, NStack: 3}),
	codec("code", DecodeCode, infallible(CodeMsg.Append), CodeMsg{AgentID: 7, Seq: 3, Index: 1, Block: [CodeBlockSize]byte{1, 2, 3}}),
	codec("heap", func(b []byte) (HeapMsg, error) { return DecodeHeapInto(nil, b) }, HeapMsg.Append,
		HeapMsg{AgentID: 1, Seq: 2, Index: 1, Entries: []HeapEntry{{Addr: 3, Value: tuplespace.Int(77)}, {Addr: 5, Value: tuplespace.Str("ab")}}}),
	codec("stack", func(b []byte) (StackMsg, error) { return DecodeStackInto(nil, b) }, StackMsg.Append,
		StackMsg{AgentID: 1, Seq: 2, Values: []tuplespace.Value{tuplespace.Int(1), tuplespace.LocV(topology.Loc(5, 1))}}),
	codec("reaction", DecodeReaction, ReactionMsg.Append,
		ReactionMsg{AgentID: 5, Seq: 9, Index: 2, PC: 123, Template: tuplespace.Tmpl(tuplespace.Str("fir"), tuplespace.TypeV(tuplespace.TypeLocation))}),
	codec("ack", DecodeAck, infallible(AckMsg.Append), AckMsg{AgentID: 77, Seq: 12, Of: MsgCode, Index: 19}),
}

// infallible adapts an Append that cannot fail.
func infallible[T any](appendTo func(T, []byte) []byte) func(T, []byte) ([]byte, error) {
	return func(v T, dst []byte) ([]byte, error) { return appendTo(v, dst), nil }
}

// codec builds the FuzzPayloadDecode entry for one message type. Values
// compare by their %+v renderings, under which a nil and an empty slice
// read alike, as they do to every caller, and by their re-encodings.
func codec[T any](name string, decode func([]byte) (T, error), appendTo func(T, []byte) ([]byte, error), seeds ...T) payloadCodec {
	c := payloadCodec{check: func(t *testing.T, b []byte) {
		v, err := decode(b)
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("%s: rejection does not wrap ErrBadMessage: %v", name, err)
			}
			return
		}
		enc, err := appendTo(v, nil)
		if err != nil {
			t.Fatalf("%s: decoded %+v does not re-encode: %v", name, v, err)
		}
		again, err := decode(enc)
		if err != nil {
			t.Fatalf("%s: re-encoding %x of %+v does not decode: %v", name, enc, v, err)
		}
		if got, want := fmt.Sprintf("%+v", again), fmt.Sprintf("%+v", v); got != want {
			t.Fatalf("%s: decode → Append → decode gave %s, want %s", name, got, want)
		}
		// Append after a five-byte prefix, once into spare capacity that
		// holds stale bytes and once into none: the prefix stays, and
		// every byte after it is written.
		prefix := []byte{0xEE, 0xEE, 0xEE, 0xEE, 0xEE}
		stale := bytes.Repeat([]byte{0xEE}, len(prefix)+len(enc)+8)
		for _, dst := range [][]byte{stale[:len(prefix)], stale[:len(prefix):len(prefix)]} {
			out, err := appendTo(again, dst)
			if err != nil {
				t.Fatalf("%s: Append after a prefix: %v", name, err)
			}
			if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], enc) {
				t.Fatalf("%s: Append after a prefix gave %x, want %x then %x", name, out, prefix, enc)
			}
		}
	}}
	for _, s := range seeds {
		b, err := appendTo(s, nil)
		if err != nil {
			panic(fmt.Sprintf("%s seed %+v: %v", name, s, err))
		}
		c.seeds = append(c.seeds, b)
	}
	return c
}
