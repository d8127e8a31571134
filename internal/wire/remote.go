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
func (r RemoteRequest) Encode() []byte { return r.Append(nil) }

// Append appends the encoding of r to dst.
func (r RemoteRequest) Append(dst []byte) []byte {
	dst, b := grow(dst, 8)
	b[0] = byte(r.Op)
	put16(b[1:], r.ReqID)
	putLoc(b[3:], r.ReplyTo)
	// b[7] is reserved.
	if r.Op == OpRout {
		return r.Tuple.Marshal(dst)
	}
	return r.Template.Marshal(dst)
}

// DecodeRemoteRequest parses a request, appending the fields of its tuple
// or template to fields: the request's Tuple or Template is fields'
// storage. A fields buffer with room for tuplespace.MaxTupleBytes values
// makes the decode allocation-free.
func DecodeRemoteRequest(b []byte, fields []tuplespace.Value) (RemoteRequest, error) {
	if len(b) < 9 {
		return RemoteRequest{}, fmt.Errorf("%w: short remote request", ErrBadMessage)
	}
	r := RemoteRequest{Op: RemoteOp(b[0]), ReqID: get16(b[1:]), ReplyTo: getLoc(b[3:])}
	if r.Op != OpRout && r.Op != OpRinp && r.Op != OpRrdp {
		return RemoteRequest{}, fmt.Errorf("%w: unknown remote op %d", ErrBadMessage, b[0])
	}
	fields, _, err := tuplespace.AppendFields(fields, b[8:])
	switch {
	case err != nil && r.Op == OpRout:
		return RemoteRequest{}, fmt.Errorf("%w: remote request tuple: %v", ErrBadMessage, err)
	case err != nil:
		return RemoteRequest{}, fmt.Errorf("%w: remote request template: %v", ErrBadMessage, err)
	case r.Op == OpRout:
		r.Tuple.Fields = fields
	default:
		r.Template.Fields = fields
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
func (r RemoteReply) Encode() []byte { return r.Append(nil) }

// Append appends the encoding of r to dst. Only a successful reply
// carries a tuple.
func (r RemoteReply) Append(dst []byte) []byte {
	dst, b := grow(dst, 4)
	b[0] = 1 // format version
	put16(b[1:], r.ReqID)
	if r.OK {
		b[3] = 1
		if len(r.Tuple.Fields) > 0 {
			return r.Tuple.Marshal(dst)
		}
	}
	return dst
}

// DecodeRemoteReply parses a reply, appending the fields of its tuple to
// fields as DecodeRemoteRequest does. Only a successful reply carries a
// tuple: bytes past the header of a failed one are ignored.
func DecodeRemoteReply(b []byte, fields []tuplespace.Value) (RemoteReply, error) {
	if len(b) < 4 || b[0] != 1 {
		return RemoteReply{}, fmt.Errorf("%w: bad remote reply", ErrBadMessage)
	}
	r := RemoteReply{ReqID: get16(b[1:]), OK: b[3] == 1}
	if r.OK && len(b) > 4 {
		fields, _, err := tuplespace.AppendFields(fields, b[4:])
		if err != nil {
			return RemoteReply{}, fmt.Errorf("%w: remote reply tuple: %v", ErrBadMessage, err)
		}
		r.Tuple.Fields = fields
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
func (b Beacon) Encode() []byte { return b.Append(nil) }

// Append appends the encoding of b to dst.
func (b Beacon) Append(dst []byte) []byte { return append(dst, 1, b.NumAgents, 0) }

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
func (e Envelope) Encode() []byte { return e.Append(nil) }

// Append appends the encoding of e to dst: the header, then Body.
func (e Envelope) Append(dst []byte) []byte {
	dst, b := grow(dst, EnvelopeOverhead)
	putLoc(b[0:], e.Src)
	putLoc(b[4:], e.Dst)
	b[8] = e.TTL
	b[9] = e.Kind
	return append(dst, e.Body...)
}

// DecodeEnvelope parses an envelope. Body aliases b: a relay re-encodes
// it, and a receiver of a radio frame copies whatever it keeps (see
// radio.Receiver).
func DecodeEnvelope(b []byte) (Envelope, error) {
	if len(b) < EnvelopeOverhead {
		return Envelope{}, fmt.Errorf("%w: short envelope", ErrBadMessage)
	}
	return Envelope{
		Src:  getLoc(b[0:]),
		Dst:  getLoc(b[4:]),
		TTL:  b[8],
		Kind: b[9],
		Body: b[EnvelopeOverhead:],
	}, nil
}
