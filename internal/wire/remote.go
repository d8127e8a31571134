package wire

import (
	"fmt"

	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

// RemoteOp identifies a remote tuple space operation (§2.2: rout, rinp,
// rrdp — only probing operations are provided remotely so an agent cannot
// block forever on message loss). vm.RemoteKind and agilla.RemoteKind
// alias it.
type RemoteOp uint8

// Remote operations.
const (
	OpRout RemoteOp = 1
	OpRinp RemoteOp = 2
	OpRrdp RemoteOp = 3
)

func (o RemoteOp) String() string {
	switch o {
	case OpRout:
		return "rout"
	case OpRinp:
		return "rinp"
	case OpRrdp:
		return "rrdp"
	default:
		return fmt.Sprintf("remoteop(%d)", uint8(o))
	}
}

// RemoteRequest asks the node hosting a tuple space to perform one
// operation. "a request containing the instruction and template is sent to
// the destination node" (§3.2). A request fits in one message: the tuple or
// template is at most 25 bytes.
type RemoteRequest struct {
	ReqID   uint16
	Op      RemoteOp
	ReplyTo topology.Location
	// Tuple is the rout payload; Template the rinp/rrdp pattern. Exactly
	// one is meaningful, selected by Op.
	Tuple    tuplespace.Tuple
	Template tuplespace.Template
}

// Encode renders the request.
func (r RemoteRequest) Encode() []byte {
	b := make([]byte, 8, 8+tuplespace.MaxTupleBytes+1)
	b[0] = byte(r.Op)
	put16(b[1:], r.ReqID)
	putLoc(b[3:], r.ReplyTo)
	b[7] = 0 // reserved
	if r.Op == OpRout {
		return r.Tuple.Marshal(b)
	}
	return r.Template.Marshal(b)
}

// DecodeRemoteRequest parses a request.
func DecodeRemoteRequest(b []byte) (RemoteRequest, error) {
	if len(b) < 9 {
		return RemoteRequest{}, fmt.Errorf("%w: short remote request", ErrBadMessage)
	}
	r := RemoteRequest{Op: RemoteOp(b[0]), ReqID: get16(b[1:]), ReplyTo: getLoc(b[3:])}
	switch r.Op {
	case OpRout:
		t, _, err := tuplespace.UnmarshalTuple(b[8:])
		if err != nil {
			return RemoteRequest{}, fmt.Errorf("%w: remote request tuple: %v", ErrBadMessage, err)
		}
		r.Tuple = t
	case OpRinp, OpRrdp:
		p, _, err := tuplespace.UnmarshalTemplate(b[8:])
		if err != nil {
			return RemoteRequest{}, fmt.Errorf("%w: remote request template: %v", ErrBadMessage, err)
		}
		r.Template = p
	default:
		return RemoteRequest{}, fmt.Errorf("%w: unknown remote op %d", ErrBadMessage, b[0])
	}
	return r, nil
}

// RemoteReply carries the result back to the initiator.
type RemoteReply struct {
	ReqID uint16
	// OK reports operation success: the tuple was inserted (rout) or a
	// match was found (rinp/rrdp).
	OK bool
	// Tuple is the matched tuple for successful rinp/rrdp.
	Tuple tuplespace.Tuple
}

// Encode renders the reply.
func (r RemoteReply) Encode() []byte {
	b := make([]byte, 4, 4+tuplespace.MaxTupleBytes+1)
	b[0] = 1 // format version
	put16(b[1:], r.ReqID)
	if r.OK {
		b[3] = 1
	}
	if r.OK && len(r.Tuple.Fields) > 0 {
		return r.Tuple.Marshal(b)
	}
	return b
}

// DecodeRemoteReply parses a reply.
func DecodeRemoteReply(b []byte) (RemoteReply, error) {
	if len(b) < 4 || b[0] != 1 {
		return RemoteReply{}, fmt.Errorf("%w: bad remote reply", ErrBadMessage)
	}
	r := RemoteReply{ReqID: get16(b[1:]), OK: b[3] == 1}
	if len(b) > 4 {
		t, _, err := tuplespace.UnmarshalTuple(b[4:])
		if err != nil {
			return RemoteReply{}, fmt.Errorf("%w: remote reply tuple: %v", ErrBadMessage, err)
		}
		r.Tuple = t
	}
	return r, nil
}

// Beacon is the neighbor-discovery broadcast. The radio frame already
// carries the source location; the payload adds the sender's agent count so
// neighbors can publish richer context. Size: 3 bytes.
type Beacon struct {
	NumAgents uint8
}

// Encode renders the beacon.
func (b Beacon) Encode() []byte {
	return []byte{1, b.NumAgents, 0}
}

// DecodeBeacon parses a beacon.
func DecodeBeacon(p []byte) (Beacon, error) {
	if len(p) < 3 || p[0] != 1 {
		return Beacon{}, fmt.Errorf("%w: bad beacon", ErrBadMessage)
	}
	return Beacon{NumAgents: p[1]}, nil
}

// EnvelopeOverhead is the routed-envelope header size.
const EnvelopeOverhead = 10

// Envelope wraps a payload for multi-hop greedy geographic forwarding. The
// radio frame's Dst is the next hop; the envelope's Dst is the final
// destination. TTL bounds forwarding so routing loops cannot live forever.
type Envelope struct {
	Src  topology.Location // originator
	Dst  topology.Location // final destination
	TTL  uint8
	Kind uint8 // inner frame kind (radio.Kind*)
	Body []byte
}

// Encode renders the envelope.
func (e Envelope) Encode() []byte {
	b := make([]byte, EnvelopeOverhead, EnvelopeOverhead+len(e.Body))
	putLoc(b[0:], e.Src)
	putLoc(b[4:], e.Dst)
	b[8] = e.TTL
	b[9] = e.Kind
	return append(b, e.Body...)
}

// DecodeEnvelope parses an envelope.
func DecodeEnvelope(b []byte) (Envelope, error) {
	if len(b) < EnvelopeOverhead {
		return Envelope{}, fmt.Errorf("%w: short envelope", ErrBadMessage)
	}
	return Envelope{
		Src:  getLoc(b[0:]),
		Dst:  getLoc(b[4:]),
		TTL:  b[8],
		Kind: b[9],
		Body: append([]byte(nil), b[EnvelopeOverhead:]...),
	}, nil
}
