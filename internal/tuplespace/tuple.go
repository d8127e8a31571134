package tuplespace

import (
	"errors"
	"fmt"
)

// MaxTupleBytes is the largest serialized tuple the store accepts. The
// paper sets this to 25 bytes so a tuple fits in a single TinyOS message
// payload (§3.2, Tuple Space Manager).
const MaxTupleBytes = 25

// ErrTupleTooBig is returned when a tuple exceeds MaxTupleBytes.
var ErrTupleTooBig = errors.New("tuplespace: tuple exceeds 25-byte limit")

// Tuple is an ordered set of fields.
type Tuple struct {
	Fields []Value
}

// T builds a tuple from fields.
func T(fields ...Value) Tuple { return Tuple{Fields: fields} }

// EncodedSize returns the serialized size: a field-count byte plus fields.
func (t Tuple) EncodedSize() int {
	n := 1
	for _, f := range t.Fields {
		n += f.EncodedSize()
	}
	return n
}

// Marshal appends the tuple encoding to dst.
func (t Tuple) Marshal(dst []byte) []byte {
	dst = append(dst, byte(len(t.Fields)))
	for _, f := range t.Fields {
		dst = f.Marshal(dst)
	}
	return dst
}

// UnmarshalTuple decodes a tuple from b, returning bytes consumed.
func UnmarshalTuple(b []byte) (Tuple, int, error) {
	if len(b) == 0 {
		return Tuple{}, 0, ErrBadEncoding
	}
	fields, n, err := AppendFields(make([]Value, 0, b[0]), b)
	if err != nil {
		return Tuple{}, 0, err
	}
	return Tuple{Fields: fields}, n, nil
}

// AppendFields decodes the fields of the tuple encoded at the start of b
// onto dst, returning the extended slice and the bytes consumed. A dst
// with room for every field — a tuple within MaxTupleBytes has fewer than
// MaxTupleBytes of them — makes it allocation-free.
func AppendFields(dst []Value, b []byte) ([]Value, int, error) {
	if len(b) == 0 {
		return dst, 0, ErrBadEncoding
	}
	n := int(b[0])
	off := 1
	for i := 0; i < n; i++ {
		v, used, err := UnmarshalValue(b[off:])
		if err != nil {
			return dst, 0, fmt.Errorf("field %d: %w", i, err)
		}
		dst = append(dst, v)
		off += used
	}
	return dst, off, nil
}

// Equal reports field-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t.Fields) != len(o.Fields) {
		return false
	}
	for i := range t.Fields {
		if !t.Fields[i].Equal(o.Fields[i]) {
			return false
		}
	}
	return true
}

// String renders the tuple.
func (t Tuple) String() string { return FormatValues(t.Fields) }

// Template is an ordered set of fields used for pattern matching. Fields
// of KindType act as wildcards that match any field of that type; all
// other fields match by equality (§2.2).
type Template struct {
	Fields []Value
}

// Tmpl builds a template from fields.
func Tmpl(fields ...Value) Template { return Template{Fields: fields} }

// EncodedSize returns the serialized size (same layout as tuples).
func (p Template) EncodedSize() int { return Tuple(p).EncodedSize() }

// Marshal appends the template encoding to dst (same layout as tuples).
func (p Template) Marshal(dst []byte) []byte { return Tuple(p).Marshal(dst) }

// UnmarshalTemplate decodes a template from b, returning bytes consumed.
func UnmarshalTemplate(b []byte) (Template, int, error) {
	t, n, err := UnmarshalTuple(b)
	return Template(t), n, err
}

// Equal reports field-wise equality of templates.
func (p Template) Equal(o Template) bool { return Tuple(p).Equal(Tuple(o)) }

// String renders the template.
func (p Template) String() string { return FormatValues(p.Fields) }

// Matches reports whether the template matches the tuple: same number of
// fields, and each tuple field matches the corresponding template field.
func (p Template) Matches(t Tuple) bool {
	if len(p.Fields) != len(t.Fields) {
		return false
	}
	for i, pf := range p.Fields {
		tf := t.Fields[i]
		if pf.Kind == KindType {
			if !tf.MatchesType(TypeCode(pf.A)) {
				return false
			}
			continue
		}
		if !pf.Equal(tf) {
			return false
		}
	}
	return true
}
