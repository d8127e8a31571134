// Package tuplespace implements Agilla's Linda-like tuple spaces (§2.2,
// §3.2 of the paper): tuples as ordered sets of typed fields, templates
// with match-by-type wildcards, a 600-byte linearly-allocated local store
// with shift-on-remove semantics, and the reaction registry.
package tuplespace

import (
	"errors"
	"fmt"
	"strings"

	"github.com/agilla-go/agilla/internal/topology"
)

// Kind discriminates field/stack value types. The paper lists integers,
// strings, locations, and sensor readings as tuple field types (§2.2);
// agent IDs and type descriptors round out what the ISA can push.
type Kind uint8

// Field kinds.
const (
	KindInvalid  Kind = 0
	KindValue    Kind = 1 // 16-bit signed integer
	KindString   Kind = 2 // short name, at most 3 characters (pushn "fir")
	KindLocation Kind = 3 // node address (x,y)
	KindType     Kind = 4 // type descriptor; acts as a wildcard in templates
	KindReading  Kind = 5 // sensor reading: sensor type + 16-bit value
	KindAgentID  Kind = 6 // agent identifier
)

func (k Kind) String() string {
	switch k {
	case KindValue:
		return "value"
	case KindString:
		return "string"
	case KindLocation:
		return "location"
	case KindType:
		return "type"
	case KindReading:
		return "reading"
	case KindAgentID:
		return "agentid"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// TypeCode names a matchable type for template wildcards (pusht VALUE,
// pusht LOCATION, ...). Codes below 16 denote field kinds; codes at or
// above SensorTypeBase denote readings from a specific sensor, so that
// "pusht TEMPERATURE" matches only temperature readings.
type TypeCode int16

// Wildcard type codes.
const (
	TypeAny      TypeCode = 0
	TypeValue    TypeCode = 1
	TypeString   TypeCode = 2
	TypeLocation TypeCode = 3
	TypeReading  TypeCode = 4
	TypeAgentID  TypeCode = 5

	// SensorTypeBase offsets sensor-specific reading types:
	// TypeCode(SensorTypeBase + sensor).
	SensorTypeBase TypeCode = 16
)

// SensorType identifies a sensor on the mote's sensor board.
type SensorType int16

// Sensor types available on the simulated sensor board.
const (
	SensorTemperature SensorType = 1
	SensorPhoto       SensorType = 2
	SensorSound       SensorType = 3
	SensorSmoke       SensorType = 4
)

func (s SensorType) String() string {
	switch s {
	case SensorTemperature:
		return "temperature"
	case SensorPhoto:
		return "photo"
	case SensorSound:
		return "sound"
	case SensorSmoke:
		return "smoke"
	default:
		return fmt.Sprintf("sensor(%d)", int16(s))
	}
}

// TypeOfSensor returns the wildcard type code matching readings of s.
func TypeOfSensor(s SensorType) TypeCode { return SensorTypeBase + TypeCode(s) }

// MaxStringLen is the longest name a string value can carry. The paper's
// example agents push 3-character names ("fir").
const MaxStringLen = 3

// Value is one typed datum: a tuple field or a VM stack/heap slot.
// The zero Value has KindInvalid and is what empty heap slots hold.
//
// It is eight pointer-free bytes — the mote's own slot is four — so an
// agent's 28 stack and heap slots are 224 bytes the collector never scans,
// and two values are equal exactly when they are == (build them with the
// constructors below, which keep unused bytes zero).
type Value struct {
	Kind Kind
	// name holds the bytes of a KindString's name, zero-padded; its length
	// is in A.
	name [MaxStringLen]byte
	// A holds the integer payload: the value itself (KindValue), the X
	// coordinate (KindLocation), the type code (KindType), the sensor
	// type (KindReading), the agent id (KindAgentID), or the name's length
	// (KindString).
	A int16
	// B holds the Y coordinate (KindLocation) or the sensed value
	// (KindReading).
	B int16
}

// Int constructs an integer value.
func Int(v int16) Value { return Value{Kind: KindValue, A: v} }

// Str constructs a string value, truncating to MaxStringLen.
func Str(s string) Value {
	v := Value{Kind: KindString}
	v.A = int16(copy(v.name[:], s))
	return v
}

// Name returns the name a KindString value carries ("" for other kinds).
func (v Value) Name() string {
	if v.Kind != KindString {
		return ""
	}
	return string(v.name[:v.nameLen()])
}

// nameLen is the length of a KindString's name: A, held to the range the
// constructors produce (A is exported, so a hand-built Value may carry
// anything).
func (v Value) nameLen() int { return min(max(int(v.A), 0), MaxStringLen) }

// LocV constructs a location value.
func LocV(l topology.Location) Value { return Value{Kind: KindLocation, A: l.X, B: l.Y} }

// TypeV constructs a type-descriptor (wildcard) value.
func TypeV(t TypeCode) Value { return Value{Kind: KindType, A: int16(t)} }

// Reading constructs a sensor reading value.
func Reading(s SensorType, v int16) Value { return Value{Kind: KindReading, A: int16(s), B: v} }

// AgentIDV constructs an agent-id value.
func AgentIDV(id uint16) Value { return Value{Kind: KindAgentID, A: int16(id)} }

// Loc returns the value as a Location. Valid only for KindLocation.
func (v Value) Loc() topology.Location { return topology.Location{X: v.A, Y: v.B} }

// Equal reports structural equality.
func (v Value) Equal(o Value) bool { return v == o }

// EncodedSize returns the wire size of the value in bytes: a 1-byte tag
// plus the kind-specific payload.
func (v Value) EncodedSize() int {
	switch v.Kind {
	case KindValue, KindAgentID:
		return 3
	case KindString:
		return 2 + v.nameLen()
	case KindLocation:
		return 5
	case KindType:
		return 3
	case KindReading:
		return 5
	default:
		return 1
	}
}

// String renders the value for traces and the CLI.
func (v Value) String() string {
	switch v.Kind {
	case KindValue:
		return fmt.Sprintf("%d", v.A)
	case KindString:
		return fmt.Sprintf("%q", v.Name())
	case KindLocation:
		return v.Loc().String()
	case KindType:
		return fmt.Sprintf("type:%d", v.A)
	case KindReading:
		return fmt.Sprintf("%v=%d", SensorType(v.A), v.B)
	case KindAgentID:
		return fmt.Sprintf("agent:%d", uint16(v.A))
	default:
		return "invalid"
	}
}

// MatchesType reports whether the value is matched by wildcard type t.
func (v Value) MatchesType(t TypeCode) bool {
	switch {
	case t == TypeAny:
		return v.Kind != KindInvalid
	case t >= SensorTypeBase:
		return v.Kind == KindReading && SensorType(v.A) == SensorType(t-SensorTypeBase)
	case t == TypeValue:
		return v.Kind == KindValue
	case t == TypeString:
		return v.Kind == KindString
	case t == TypeLocation:
		return v.Kind == KindLocation
	case t == TypeReading:
		return v.Kind == KindReading
	case t == TypeAgentID:
		return v.Kind == KindAgentID
	default:
		return false
	}
}

// Marshal appends the wire encoding of v to dst.
func (v Value) Marshal(dst []byte) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case KindValue, KindAgentID, KindType:
		dst = append(dst, byte(uint16(v.A)>>8), byte(uint16(v.A)))
	case KindString:
		n := v.nameLen()
		dst = append(dst, byte(n))
		dst = append(dst, v.name[:n]...)
	case KindLocation, KindReading:
		dst = append(dst, byte(uint16(v.A)>>8), byte(uint16(v.A)), byte(uint16(v.B)>>8), byte(uint16(v.B)))
	}
	return dst
}

// ErrBadEncoding is returned when unmarshalling malformed bytes.
var ErrBadEncoding = errors.New("tuplespace: bad encoding")

// UnmarshalValue decodes one value from b, returning the value and the
// number of bytes consumed.
func UnmarshalValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, ErrBadEncoding
	}
	k := Kind(b[0])
	switch k {
	case KindValue, KindAgentID, KindType:
		if len(b) < 3 {
			return Value{}, 0, ErrBadEncoding
		}
		return Value{Kind: k, A: int16(uint16(b[1])<<8 | uint16(b[2]))}, 3, nil
	case KindString:
		if len(b) < 2 {
			return Value{}, 0, ErrBadEncoding
		}
		n := int(b[1])
		if n > MaxStringLen || len(b) < 2+n {
			return Value{}, 0, ErrBadEncoding
		}
		v := Value{Kind: k, A: int16(n)}
		copy(v.name[:], b[2:2+n])
		return v, 2 + n, nil
	case KindLocation, KindReading:
		if len(b) < 5 {
			return Value{}, 0, ErrBadEncoding
		}
		return Value{
			Kind: k,
			A:    int16(uint16(b[1])<<8 | uint16(b[2])),
			B:    int16(uint16(b[3])<<8 | uint16(b[4])),
		}, 5, nil
	default:
		return Value{}, 0, fmt.Errorf("%w: unknown kind %d", ErrBadEncoding, b[0])
	}
}

// FormatValues renders a field list like <"fir", (2,1)>.
func FormatValues(vs []Value) string {
	var sb strings.Builder
	sb.WriteByte('<')
	for i, v := range vs {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte('>')
	return sb.String()
}
