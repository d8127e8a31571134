// Package wire defines the binary message formats Agilla puts on the air.
//
// The migration message family reproduces Figure 5 of the paper exactly:
//
//	State    20 bytes   program counter, code size, condition code, stack pointer
//	Code     28 bytes   one 22-byte instruction block
//	Heap     32 bytes   four variables and their addresses
//	Stack    30 bytes   four variables
//	Reaction 36 bytes   one reaction
//
// Every migration message starts with a common 5-byte header (message type,
// agent id, migration sequence number) so a receiver can demultiplex
// concurrent inbound migrations. Messages are padded to their fixed Figure 5
// size; the decoder ignores padding.
//
// The package also defines the acknowledgment format used by the hop-by-hop
// migration protocol, the end-to-end remote tuple space request/reply
// formats, the neighbor-discovery beacon, and the routed envelope used by
// greedy geographic forwarding.
package wire

import (
	"errors"
	"fmt"

	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

// Message sizes from Figure 5 of the paper.
const (
	StateMsgSize    = 20
	CodeMsgSize     = 28
	HeapMsgSize     = 32
	StackMsgSize    = 30
	ReactionMsgSize = 36
)

// CodeBlockSize is the instruction-memory block size: "the instruction
// manager allocates the minimum number of 22 byte blocks necessary to store
// the agent's code" (§3.2).
const CodeBlockSize = 22

// Capacity limits implied by the message formats.
const (
	// HeapVarsPerMsg and StackVarsPerMsg: "four variables" (Figure 5).
	HeapVarsPerMsg  = 4
	StackVarsPerMsg = 4
)

// MsgType discriminates payload formats within a frame kind.
type MsgType uint8

// Migration data and control message types.
const (
	MsgState    MsgType = 1
	MsgCode     MsgType = 2
	MsgHeap     MsgType = 3
	MsgStack    MsgType = 4
	MsgReaction MsgType = 5
	MsgAck      MsgType = 6
)

func (t MsgType) String() string {
	switch t {
	case MsgState:
		return "state"
	case MsgCode:
		return "code"
	case MsgHeap:
		return "heap"
	case MsgStack:
		return "stack"
	case MsgReaction:
		return "reaction"
	case MsgAck:
		return "ack"
	default:
		return fmt.Sprintf("msg(%d)", uint8(t))
	}
}

// ErrBadMessage is wrapped by all decode errors in this package.
var ErrBadMessage = errors.New("wire: bad message")

// grow extends dst by n zero bytes, returning the extended slice and the
// n new bytes: the fixed-size message the caller fills in.
func grow(dst []byte, n int) (all, msg []byte) {
	all = append(dst, make([]byte, n)...)
	return all, all[len(dst):]
}

// pad zero-fills the message that starts at dst[start:] to its fixed
// size, or reports the overflow of a message that outgrew it.
func pad(dst []byte, start, size int, what string) ([]byte, error) {
	if len(dst)-start > size {
		return dst[:start], fmt.Errorf("%w: %s overflows %d bytes", ErrBadMessage, what, size)
	}
	return append(dst, make([]byte, size-(len(dst)-start))...), nil
}

func put16(dst []byte, v uint16) {
	dst[0] = byte(v >> 8)
	dst[1] = byte(v)
}

func get16(src []byte) uint16 {
	return uint16(src[0])<<8 | uint16(src[1])
}

func putLoc(dst []byte, l topology.Location) {
	put16(dst[0:], uint16(l.X))
	put16(dst[2:], uint16(l.Y))
}

func getLoc(src []byte) topology.Location {
	return topology.Location{X: int16(get16(src[0:])), Y: int16(get16(src[2:]))}
}

// SetSeq rewrites the migration sequence number in the common header of an
// encoded migration message, for a sender that encodes a transfer before
// it numbers it.
func SetSeq(msg []byte, seq uint16) { put16(msg[3:], seq) }

// MigKind is the migration operation carried in a state message. This is
// the repo's one migration-kind enumeration: vm.MigrateKind (what the four
// instructions request) and agilla.MigKind (what events report) alias it.
type MigKind uint8

// Migration kinds.
const (
	MigStrongMove  MigKind = 1
	MigWeakMove    MigKind = 2
	MigStrongClone MigKind = 3
	MigWeakClone   MigKind = 4
	// MigInject marks a base-station injection; handled like a strong move
	// whose origin is the injector.
	MigInject MigKind = 5
)

func (k MigKind) String() string {
	switch k {
	case MigStrongMove:
		return "smove"
	case MigWeakMove:
		return "wmove"
	case MigStrongClone:
		return "sclone"
	case MigWeakClone:
		return "wclone"
	case MigInject:
		return "inject"
	default:
		return fmt.Sprintf("mig(%d)", uint8(k))
	}
}

// Strong reports whether full state travels with the agent.
func (k MigKind) Strong() bool {
	return k == MigStrongMove || k == MigStrongClone || k == MigInject
}

// Clone reports whether the original keeps running.
func (k MigKind) Clone() bool { return k == MigStrongClone || k == MigWeakClone }

// StateMsg opens a migration. It is the first message of every transfer and
// carries the register file plus the counts the receiver needs to know when
// the transfer is complete. Encoded size is exactly StateMsgSize.
type StateMsg struct {
	AgentID uint16
	Seq     uint16 // per-sender migration sequence number
	Kind    MigKind
	Dest    topology.Location // final destination (multi-hop)
	PC      uint16
	CodeLen uint16
	Cond    int16
	SP      uint8
	NCode   uint8 // code messages to expect
	NHeap   uint8 // heap messages to expect (0-3)
	NRxn    uint8 // reaction messages to expect (0-15)
	NStack  uint8 // stack messages to expect
}

// Encode renders the message at its fixed Figure 5 size.
func (m StateMsg) Encode() []byte { return m.Append(nil) }

// Append appends the encoding of m to dst.
func (m StateMsg) Append(dst []byte) []byte {
	dst, b := grow(dst, StateMsgSize)
	b[0] = byte(MsgState)
	put16(b[1:], m.AgentID)
	put16(b[3:], m.Seq)
	b[5] = byte(m.Kind)
	putLoc(b[6:], m.Dest)
	put16(b[10:], m.PC)
	put16(b[12:], m.CodeLen)
	put16(b[14:], uint16(m.Cond))
	b[16] = m.SP
	b[17] = m.NCode
	b[18] = m.NHeap<<4 | m.NRxn&0x0f
	b[19] = m.NStack
	return dst
}

// DecodeState parses a state message.
func DecodeState(b []byte) (StateMsg, error) {
	if len(b) < StateMsgSize || MsgType(b[0]) != MsgState {
		return StateMsg{}, fmt.Errorf("%w: not a state message", ErrBadMessage)
	}
	return StateMsg{
		AgentID: get16(b[1:]),
		Seq:     get16(b[3:]),
		Kind:    MigKind(b[5]),
		Dest:    getLoc(b[6:]),
		PC:      get16(b[10:]),
		CodeLen: get16(b[12:]),
		Cond:    int16(get16(b[14:])),
		SP:      b[16],
		NCode:   b[17],
		NHeap:   b[18] >> 4,
		NRxn:    b[18] & 0x0f,
		NStack:  b[19],
	}, nil
}

// CodeMsg carries one 22-byte instruction block (§3.2). Encoded size is
// exactly CodeMsgSize.
type CodeMsg struct {
	AgentID uint16
	Seq     uint16
	Index   uint8 // block index
	Block   [CodeBlockSize]byte
}

// Encode renders the message.
func (m CodeMsg) Encode() []byte { return m.Append(nil) }

// Append appends the encoding of m to dst.
func (m CodeMsg) Append(dst []byte) []byte {
	dst, b := grow(dst, CodeMsgSize)
	b[0] = byte(MsgCode)
	put16(b[1:], m.AgentID)
	put16(b[3:], m.Seq)
	b[5] = m.Index
	copy(b[6:], m.Block[:])
	return dst
}

// DecodeCode parses a code message.
func DecodeCode(b []byte) (CodeMsg, error) {
	if len(b) < CodeMsgSize || MsgType(b[0]) != MsgCode {
		return CodeMsg{}, fmt.Errorf("%w: not a code message", ErrBadMessage)
	}
	m := CodeMsg{AgentID: get16(b[1:]), Seq: get16(b[3:]), Index: b[5]}
	copy(m.Block[:], b[6:6+CodeBlockSize])
	return m, nil
}

// HeapEntry is one heap variable and its address.
type HeapEntry struct {
	Addr  uint8
	Value tuplespace.Value
}

// HeapMsg carries up to four heap variables and their addresses (Figure 5).
// Encoded size is exactly HeapMsgSize.
type HeapMsg struct {
	AgentID uint16
	Seq     uint16
	Index   uint8
	Entries []HeapEntry
}

// Append appends the encoding of m to dst. It fails, leaving dst as it
// was, if the entries do not fit.
func (m HeapMsg) Append(dst []byte) ([]byte, error) {
	if len(m.Entries) > HeapVarsPerMsg {
		return dst, fmt.Errorf("%w: %d heap entries (max %d)", ErrBadMessage, len(m.Entries), HeapVarsPerMsg)
	}
	start := len(dst)
	dst, b := grow(dst, 7)
	b[0] = byte(MsgHeap)
	put16(b[1:], m.AgentID)
	put16(b[3:], m.Seq)
	b[5] = m.Index
	b[6] = byte(len(m.Entries))
	for _, e := range m.Entries {
		dst = append(dst, e.Addr)
		dst = e.Value.Marshal(dst)
	}
	return pad(dst, start, HeapMsgSize, "heap message")
}

// DecodeHeapInto parses a heap message, appending its entries to dst: with
// room for HeapVarsPerMsg entries it allocates nothing.
func DecodeHeapInto(dst []HeapEntry, b []byte) (HeapMsg, error) {
	if len(b) < HeapMsgSize || MsgType(b[0]) != MsgHeap {
		return HeapMsg{}, fmt.Errorf("%w: not a heap message", ErrBadMessage)
	}
	b = b[:HeapMsgSize] // bytes past the fixed size are not part of the message
	m := HeapMsg{AgentID: get16(b[1:]), Seq: get16(b[3:]), Index: b[5], Entries: dst}
	n := int(b[6])
	if n > HeapVarsPerMsg {
		return HeapMsg{}, fmt.Errorf("%w: heap entry count %d", ErrBadMessage, n)
	}
	off := 7
	for i := 0; i < n; i++ {
		if off >= len(b) {
			return HeapMsg{}, fmt.Errorf("%w: truncated heap entry", ErrBadMessage)
		}
		addr := b[off]
		off++
		v, used, err := tuplespace.UnmarshalValue(b[off:])
		if err != nil {
			return HeapMsg{}, fmt.Errorf("%w: heap entry %d: %v", ErrBadMessage, i, err)
		}
		off += used
		m.Entries = append(m.Entries, HeapEntry{Addr: addr, Value: v})
	}
	return m, nil
}

// StackMsg carries up to four operand-stack variables (Figure 5), bottom
// first. Encoded size is exactly StackMsgSize.
type StackMsg struct {
	AgentID uint16
	Seq     uint16
	Index   uint8 // slice index; entry j is stack slot Index*4+j
	Values  []tuplespace.Value
}

// Append appends the encoding of m to dst. It fails, leaving dst as it
// was, if the values do not fit.
func (m StackMsg) Append(dst []byte) ([]byte, error) {
	if len(m.Values) > StackVarsPerMsg {
		return dst, fmt.Errorf("%w: %d stack values (max %d)", ErrBadMessage, len(m.Values), StackVarsPerMsg)
	}
	start := len(dst)
	dst, b := grow(dst, 7)
	b[0] = byte(MsgStack)
	put16(b[1:], m.AgentID)
	put16(b[3:], m.Seq)
	b[5] = m.Index
	b[6] = byte(len(m.Values))
	for _, v := range m.Values {
		dst = v.Marshal(dst)
	}
	return pad(dst, start, StackMsgSize, "stack message")
}

// DecodeStackInto parses a stack message, appending its values to dst:
// with room for StackVarsPerMsg values it allocates nothing.
func DecodeStackInto(dst []tuplespace.Value, b []byte) (StackMsg, error) {
	if len(b) < StackMsgSize || MsgType(b[0]) != MsgStack {
		return StackMsg{}, fmt.Errorf("%w: not a stack message", ErrBadMessage)
	}
	b = b[:StackMsgSize] // bytes past the fixed size are not part of the message
	m := StackMsg{AgentID: get16(b[1:]), Seq: get16(b[3:]), Index: b[5], Values: dst}
	n := int(b[6])
	if n > StackVarsPerMsg {
		return StackMsg{}, fmt.Errorf("%w: stack value count %d", ErrBadMessage, n)
	}
	off := 7
	for i := 0; i < n; i++ {
		v, used, err := tuplespace.UnmarshalValue(b[off:])
		if err != nil {
			return StackMsg{}, fmt.Errorf("%w: stack value %d: %v", ErrBadMessage, i, err)
		}
		off += used
		m.Values = append(m.Values, v)
	}
	return m, nil
}

// ReactionMsg carries one registered reaction (Figure 5): the code address
// and template. Encoded size is exactly ReactionMsgSize.
type ReactionMsg struct {
	AgentID  uint16
	Seq      uint16
	Index    uint8
	PC       uint16
	Template tuplespace.Template
}

// Append appends the encoding of m to dst. It fails, leaving dst as it
// was, if the template does not fit.
func (m ReactionMsg) Append(dst []byte) ([]byte, error) {
	start := len(dst)
	dst, b := grow(dst, 8)
	b[0] = byte(MsgReaction)
	put16(b[1:], m.AgentID)
	put16(b[3:], m.Seq)
	b[5] = m.Index
	put16(b[6:], m.PC)
	dst = m.Template.Marshal(dst)
	return pad(dst, start, ReactionMsgSize, "reaction template")
}

// DecodeReaction parses a reaction message.
func DecodeReaction(b []byte) (ReactionMsg, error) {
	if len(b) < ReactionMsgSize || MsgType(b[0]) != MsgReaction {
		return ReactionMsg{}, fmt.Errorf("%w: not a reaction message", ErrBadMessage)
	}
	b = b[:ReactionMsgSize] // bytes past the fixed size are not part of the message
	m := ReactionMsg{AgentID: get16(b[1:]), Seq: get16(b[3:]), Index: b[5], PC: get16(b[6:])}
	p, _, err := tuplespace.UnmarshalTemplate(b[8:])
	if err != nil {
		return ReactionMsg{}, fmt.Errorf("%w: reaction template: %v", ErrBadMessage, err)
	}
	m.Template = p
	return m, nil
}

// AckMsgSize is the fixed acknowledgment size.
const AckMsgSize = 7

// AckMsg acknowledges one migration message hop-by-hop (§3.2: "each message
// is acknowledged").
type AckMsg struct {
	AgentID uint16
	Seq     uint16
	Of      MsgType // which message type is acknowledged
	Index   uint8   // which index of that type
}

// Encode renders the ack.
func (m AckMsg) Encode() []byte { return m.Append(nil) }

// Append appends the encoding of m to dst.
func (m AckMsg) Append(dst []byte) []byte {
	dst, b := grow(dst, AckMsgSize)
	b[0] = byte(MsgAck)
	put16(b[1:], m.AgentID)
	put16(b[3:], m.Seq)
	b[5] = byte(m.Of)
	b[6] = m.Index
	return dst
}

// DecodeAck parses an ack.
func DecodeAck(b []byte) (AckMsg, error) {
	if len(b) < AckMsgSize || MsgType(b[0]) != MsgAck {
		return AckMsg{}, fmt.Errorf("%w: not an ack", ErrBadMessage)
	}
	return AckMsg{
		AgentID: get16(b[1:]),
		Seq:     get16(b[3:]),
		Of:      MsgType(b[5]),
		Index:   b[6],
	}, nil
}

// Type peeks at the message type byte without decoding the body.
func Type(b []byte) (MsgType, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("%w: empty payload", ErrBadMessage)
	}
	return MsgType(b[0]), nil
}
