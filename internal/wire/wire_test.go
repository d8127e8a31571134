package wire

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

// TestFigure5Sizes pins the migration message sizes to the paper's Figure 5.
func TestFigure5Sizes(t *testing.T) {
	tests := []struct {
		name string
		got  int
		want int
	}{
		{"state", len(StateMsg{}.Encode()), 20},
		{"code", len(CodeMsg{}.Encode()), 28},
		{"ack", len(AckMsg{}.Encode()), 7},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("%s message: %d bytes, want %d", tt.name, tt.got, tt.want)
		}
	}

	hb, err := (HeapMsg{Entries: []HeapEntry{
		{Addr: 0, Value: tuplespace.LocV(topology.Loc(1, 2))},
		{Addr: 3, Value: tuplespace.Int(7)},
		{Addr: 5, Value: tuplespace.Str("abc")},
		{Addr: 11, Value: tuplespace.Reading(tuplespace.SensorTemperature, 99)},
	}}).Append(nil)
	if err != nil {
		t.Fatalf("heap encode: %v", err)
	}
	if len(hb) != 32 {
		t.Errorf("heap message: %d bytes, want 32", len(hb))
	}

	sb, err := (StackMsg{Values: []tuplespace.Value{
		tuplespace.Int(1), tuplespace.Int(2), tuplespace.LocV(topology.Loc(5, 1)), tuplespace.Str("fir"),
	}}).Append(nil)
	if err != nil {
		t.Fatalf("stack encode: %v", err)
	}
	if len(sb) != 30 {
		t.Errorf("stack message: %d bytes, want 30", len(sb))
	}

	rb, err := (ReactionMsg{PC: 7, Template: tuplespace.Tmpl(
		tuplespace.Str("fir"), tuplespace.TypeV(tuplespace.TypeLocation),
	)}).Append(nil)
	if err != nil {
		t.Fatalf("reaction encode: %v", err)
	}
	if len(rb) != 36 {
		t.Errorf("reaction message: %d bytes, want 36", len(rb))
	}
}

func TestStateRoundTrip(t *testing.T) {
	m := StateMsg{
		AgentID: 0x1234, Seq: 0xbeef, Kind: MigStrongClone,
		Dest: topology.Loc(5, 1), PC: 300, CodeLen: 440, Cond: -2,
		SP: 9, NCode: 20, NHeap: 3, NRxn: 10, NStack: 3,
	}
	got, err := DecodeState(m.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != m {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestStateRoundTripQuick(t *testing.T) {
	f := func(id, seq, pc, codeLen uint16, cond int16, sp, ncode uint8, nheap, nrxn, nstack uint8, x, y int16, kind uint8) bool {
		m := StateMsg{
			AgentID: id, Seq: seq, Kind: MigKind(kind%5 + 1),
			Dest: topology.Loc(x, y), PC: pc, CodeLen: codeLen, Cond: cond,
			SP: sp, NCode: ncode, NHeap: nheap % 16, NRxn: nrxn % 16, NStack: nstack,
		}
		got, err := DecodeState(m.Encode())
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodeRoundTrip(t *testing.T) {
	m := CodeMsg{AgentID: 7, Seq: 3, Index: 19}
	for i := range m.Block {
		m.Block[i] = byte(i * 3)
	}
	got, err := DecodeCode(m.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != m {
		t.Errorf("round trip mismatch: got %+v want %+v", got, m)
	}
}

func randomValue(r *rand.Rand) tuplespace.Value {
	switch r.Intn(5) {
	case 0:
		return tuplespace.Int(int16(r.Int()))
	case 1:
		return tuplespace.Str(string([]byte{byte('a' + r.Intn(26)), byte('a' + r.Intn(26)), byte('a' + r.Intn(26))})[:1+r.Intn(3)])
	case 2:
		return tuplespace.LocV(topology.Loc(int16(r.Intn(100)), int16(r.Intn(100))))
	case 3:
		return tuplespace.TypeV(tuplespace.TypeCode(r.Intn(20)))
	default:
		return tuplespace.Reading(tuplespace.SensorType(1+r.Intn(4)), int16(r.Int()))
	}
}

func TestHeapRoundTripQuick(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := HeapMsg{AgentID: uint16(r.Int()), Seq: uint16(r.Int()), Index: uint8(r.Intn(3))}
		n := r.Intn(HeapVarsPerMsg + 1)
		for i := 0; i < n; i++ {
			m.Entries = append(m.Entries, HeapEntry{Addr: uint8(r.Intn(12)), Value: randomValue(r)})
		}
		b, err := m.Append(nil)
		if err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
		got, err := DecodeHeapInto(nil, b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
		}
	}
}

func TestStackRoundTripQuick(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		m := StackMsg{AgentID: uint16(r.Int()), Seq: uint16(r.Int()), Index: uint8(r.Intn(4))}
		n := r.Intn(StackVarsPerMsg + 1)
		for i := 0; i < n; i++ {
			m.Values = append(m.Values, randomValue(r))
		}
		b, err := m.Append(nil)
		if err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
		got, err := DecodeStackInto(nil, b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
		}
	}
}

func TestReactionRoundTrip(t *testing.T) {
	m := ReactionMsg{AgentID: 5, Seq: 9, Index: 2, PC: 123, Template: tuplespace.Tmpl(
		tuplespace.Str("fir"),
		tuplespace.TypeV(tuplespace.TypeLocation),
	)}
	b, err := m.Append(nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeReaction(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.AgentID != m.AgentID || got.Seq != m.Seq || got.Index != m.Index || got.PC != m.PC || !got.Template.Equal(m.Template) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestReactionOverflow(t *testing.T) {
	// A template using every byte of the 25-byte budget still has to fit;
	// 5 locations = 1 + 5*5 = 26 bytes exceeds the tuple limit but tests
	// the message-size guard directly.
	var fields []tuplespace.Value
	for i := 0; i < 6; i++ {
		fields = append(fields, tuplespace.LocV(topology.Loc(int16(i), int16(i))))
	}
	_, err := (ReactionMsg{Template: tuplespace.Template{Fields: fields}}).Append(nil)
	if err == nil {
		t.Fatal("want overflow error for oversized reaction template")
	}
}

func TestAckRoundTrip(t *testing.T) {
	m := AckMsg{AgentID: 77, Seq: 12, Of: MsgCode, Index: 19}
	got, err := DecodeAck(m.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != m {
		t.Errorf("round trip mismatch: got %+v want %+v", got, m)
	}
}

func TestRemoteRequestRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		req  RemoteRequest
	}{
		{"rout", RemoteRequest{ReqID: 9, Op: OpRout, ReplyTo: topology.Loc(0, 0),
			Tuple: tuplespace.T(tuplespace.Int(1))}},
		{"rinp", RemoteRequest{ReqID: 10, Op: OpRinp, ReplyTo: topology.Loc(2, 3),
			Template: tuplespace.Tmpl(tuplespace.Str("fir"), tuplespace.TypeV(tuplespace.TypeAny))}},
		{"rrdp", RemoteRequest{ReqID: 11, Op: OpRrdp, ReplyTo: topology.Loc(5, 5),
			Template: tuplespace.Tmpl(tuplespace.TypeV(tuplespace.TypeOfSensor(tuplespace.SensorSmoke)))}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := DecodeRemoteRequest(tt.req.Encode(), nil)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.ReqID != tt.req.ReqID || got.Op != tt.req.Op || got.ReplyTo != tt.req.ReplyTo {
				t.Errorf("header mismatch: got %+v want %+v", got, tt.req)
			}
			if tt.req.Op == OpRout && !got.Tuple.Equal(tt.req.Tuple) {
				t.Errorf("tuple mismatch: got %v want %v", got.Tuple, tt.req.Tuple)
			}
			if tt.req.Op != OpRout && !got.Template.Equal(tt.req.Template) {
				t.Errorf("template mismatch: got %v want %v", got.Template, tt.req.Template)
			}
		})
	}
}

func TestRemoteRequestFitsOneMessage(t *testing.T) {
	// §3.2: "a request can fit in one message" — the largest legal tuple
	// plus the request header must stay within a single frame payload
	// (the paper's TinyOS payload is 27 bytes for the tuple content; our
	// frames carry the 8-byte header alongside).
	big := tuplespace.T(
		tuplespace.LocV(topology.Loc(1, 1)),
		tuplespace.LocV(topology.Loc(2, 2)),
		tuplespace.LocV(topology.Loc(3, 3)),
		tuplespace.LocV(topology.Loc(4, 4)),
		tuplespace.Str("abc"),
	)
	if big.EncodedSize() > tuplespace.MaxTupleBytes+1 {
		t.Fatalf("test tuple too large: %d", big.EncodedSize())
	}
	req := RemoteRequest{ReqID: 1, Op: OpRout, ReplyTo: topology.Loc(0, 0), Tuple: big}
	if n := len(req.Encode()); n > 8+tuplespace.MaxTupleBytes+1 {
		t.Errorf("remote request %d bytes; must fit a single message", n)
	}
}

func TestRemoteReplyRoundTrip(t *testing.T) {
	tests := []struct {
		name  string
		reply RemoteReply
	}{
		{"ok with tuple", RemoteReply{ReqID: 4, OK: true, Tuple: tuplespace.T(tuplespace.Int(42))}},
		{"ok bare", RemoteReply{ReqID: 5, OK: true}},
		{"fail", RemoteReply{ReqID: 6, OK: false}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := DecodeRemoteReply(tt.reply.Encode(), nil)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.ReqID != tt.reply.ReqID || got.OK != tt.reply.OK || !got.Tuple.Equal(tt.reply.Tuple) {
				t.Errorf("round trip mismatch: got %+v want %+v", got, tt.reply)
			}
		})
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	b, err := DecodeBeacon(Beacon{NumAgents: 3}.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if b.NumAgents != 3 {
		t.Errorf("NumAgents = %d, want 3", b.NumAgents)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	e := Envelope{
		Src: topology.Loc(0, 0), Dst: topology.Loc(5, 1),
		TTL: 12, Kind: 4, Body: []byte{1, 2, 3},
	}
	got, err := DecodeEnvelope(e.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Src != e.Src || got.Dst != e.Dst || got.TTL != e.TTL || got.Kind != e.Kind {
		t.Errorf("header mismatch: got %+v want %+v", got, e)
	}
	if !reflect.DeepEqual(got.Body, e.Body) {
		t.Errorf("body mismatch: got %v want %v", got.Body, e.Body)
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		fn   func([]byte) error
		b    []byte
	}{
		{"state short", func(b []byte) error { _, err := DecodeState(b); return err }, []byte{byte(MsgState), 1}},
		{"state wrong type", func(b []byte) error { _, err := DecodeState(b); return err }, make([]byte, 20)},
		{"code short", func(b []byte) error { _, err := DecodeCode(b); return err }, []byte{byte(MsgCode)}},
		{"heap bad count", func(b []byte) error { _, err := DecodeHeapInto(nil, b); return err },
			append([]byte{byte(MsgHeap), 0, 0, 0, 0, 0, 9}, make([]byte, 25)...)},
		{"stack bad value", func(b []byte) error { _, err := DecodeStackInto(nil, b); return err },
			append([]byte{byte(MsgStack), 0, 0, 0, 0, 0, 1, 99}, make([]byte, 22)...)},
		{"reaction short", func(b []byte) error { _, err := DecodeReaction(b); return err }, []byte{byte(MsgReaction)}},
		{"ack short", func(b []byte) error { _, err := DecodeAck(b); return err }, []byte{byte(MsgAck), 1, 2}},
		{"remote request empty", func(b []byte) error { _, err := DecodeRemoteRequest(b, nil); return err }, nil},
		{"remote request bad op", func(b []byte) error { _, err := DecodeRemoteRequest(b, nil); return err },
			[]byte{9, 0, 1, 0, 0, 0, 0, 0, 0}},
		{"remote reply short", func(b []byte) error { _, err := DecodeRemoteReply(b, nil); return err }, []byte{1, 2}},
		{"beacon short", func(b []byte) error { _, err := DecodeBeacon(b); return err }, []byte{1}},
		{"envelope short", func(b []byte) error { _, err := DecodeEnvelope(b); return err }, make([]byte, 5)},
		{"type empty", func(b []byte) error { _, err := Type(b); return err }, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.fn(tt.b); err == nil {
				t.Error("want decode error, got nil")
			}
		})
	}
}

func TestTypePeek(t *testing.T) {
	m := StateMsg{AgentID: 1}
	mt, err := Type(m.Encode())
	if err != nil {
		t.Fatalf("Type: %v", err)
	}
	if mt != MsgState {
		t.Errorf("Type = %v, want state", mt)
	}
}

func TestMigKindProperties(t *testing.T) {
	tests := []struct {
		kind   MigKind
		strong bool
	}{
		{MigStrongMove, true},
		{MigWeakMove, false},
		{MigStrongClone, true},
		{MigWeakClone, false},
		{MigInject, true},
	}
	for _, tt := range tests {
		if got := tt.kind.Strong(); got != tt.strong {
			t.Errorf("%v.Strong() = %v, want %v", tt.kind, got, tt.strong)
		}
	}
}
