// Package asm assembles the Agilla agent language used throughout the
// paper (Figures 2, 8, and 13) into VM bytecode, and disassembles bytecode
// back to text.
//
// Source format, one instruction per line:
//
//	// comment
//	BEGIN pushc TEMPERATURE   // optional leading label
//	      sense
//	      pushcl 200
//	      clt
//	      rjumpc FIRE
//	      ...
//	FIRE  pushn fir
//
// Labels are identifiers that start the line and are followed by an
// instruction on the same or a later line. Operands may be decimal
// integers, labels (resolved to code addresses), or the built-in symbols
// for sensor and field types (TEMPERATURE, PHOTO, SOUND, SMOKE, VALUE,
// STRING, LOCATION, TYPE, READING, AGENTID, ANY).
//
// The package is one assembler with two front-ends. The text parser here
// and program.Builder each only append statements — an opcode, operands
// that are a value or a symbol, the labels bound to it — to a List;
// List.Link is the single back-end that lays out addresses, resolves
// labels, .const and builtin symbols, range-checks and encodes every
// operand kind, and runs the shared static verifier (internal/vm.Verify:
// jump targets on instruction boundaries, heap indices in range, no
// guaranteed stack underflow or overflow). Link reports every defect by
// statement index with one message body; each front-end adds only its
// position style and sentinel — here "line N" with ErrSyntax for a
// malformed statement and ErrVerify for a verifier finding, in package
// program "step N (op) after label L" with program.ErrVerify.
package asm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
)

// ErrSyntax is wrapped by all assembly parse errors. Every wrap carries
// the source line number and the offending token.
var ErrSyntax = errors.New("asm: syntax error")

// ErrVerify is wrapped by static-verification failures of otherwise
// well-formed source (bad jump targets, guaranteed stack underflow, ...).
var ErrVerify = errors.New("asm: program verification failed")

// Builtin symbol values usable as immediate operands.
var builtins = map[string]int{
	// Sensor type codes (for pushc + sense, and pushrt).
	"TEMPERATURE": int(tuplespace.SensorTemperature),
	"PHOTO":       int(tuplespace.SensorPhoto),
	"SOUND":       int(tuplespace.SensorSound),
	"SMOKE":       int(tuplespace.SensorSmoke),
	// Field type codes (for pusht).
	"ANY":      int(tuplespace.TypeAny),
	"VALUE":    int(tuplespace.TypeValue),
	"STRING":   int(tuplespace.TypeString),
	"LOCATION": int(tuplespace.TypeLocation),
	"READING":  int(tuplespace.TypeReading),
	"AGENTID":  int(tuplespace.TypeAgentID),
}

// pushtSpecial lets `pusht TEMPERATURE` mean "readings of the temperature
// sensor" rather than the raw sensor code, as the FIRETRACKER agent
// expects.
var pushtSpecial = map[string]int{
	"TEMPERATURE": int(tuplespace.TypeOfSensor(tuplespace.SensorTemperature)),
	"PHOTO":       int(tuplespace.TypeOfSensor(tuplespace.SensorPhoto)),
	"SOUND":       int(tuplespace.TypeOfSensor(tuplespace.SensorSound)),
	"SMOKE":       int(tuplespace.TypeOfSensor(tuplespace.SensorSmoke)),
}

// Operand is one instruction operand: a literal Val, or a Sym the link
// step resolves (a label, a .const, a builtin; for pushn, the name).
type Operand interface{ fmt.Stringer }

// Val is a literal integer operand.
type Val int

// Sym is a symbolic operand.
type Sym string

func (v Val) String() string { return strconv.Itoa(int(v)) }
func (s Sym) String() string { return string(s) }

// Stmt is one instruction before layout.
type Stmt struct {
	Op     vm.Op
	Args   []Operand
	Labels []string // labels naming this instruction's address
	Line   int      // 1-based source line; 0 when built
}

// List is a program as either front-end states it: the text parser and
// program.Builder both append to one, and Link is the only code that
// turns one into bytes.
type List struct {
	Stmts []Stmt

	consts map[string]int // .const definitions
	// pending labels name the next statement — at Link, the end of the
	// program — and endLine is the source line of the last of them.
	pending []string
	endLine int
}

// Label binds name to the address of the next statement added.
func (l *List) Label(name string, line int) {
	l.pending = append(l.pending, name)
	l.endLine = line
}

// Add appends one instruction, bound to the labels pending since the last.
func (l *List) Add(op vm.Op, line int, args ...Operand) {
	l.Stmts = append(l.Stmts, Stmt{Op: op, Args: args, Labels: l.pending, Line: line})
	l.pending = nil
}

// Diag is one defect Link found, positioned by statement index
// (len(Stmts) for a label bound past the last instruction). Verify marks
// a static-verifier finding on a program that did link.
type Diag struct {
	Index  int
	Msg    string
	Verify bool
}

// Linked is a List laid out, resolved, encoded and verified.
type Linked struct {
	Code   []byte
	Report vm.VerifyReport
	Stmts  []Stmt // one per instruction, in program order
	PCs    []int  // PCs[i] is the byte address of Stmts[i]; ascending
}

// maxCode is the largest program the wire format's 16-bit code length
// can carry.
const maxCode = 65535

// immediates states each integer operand kind once: what its value is
// called, its range, how a message prints that range, and the way out.
var immediates = map[vm.OperandKind]struct {
	what   string
	lo, hi int
	rng    string
	hint   string
}{
	vm.OperandU8:     {"value", 0, 255, "[0,255]", "; use pushcl"},
	vm.OperandS16:    {"value", -32768, 32767, "[-32768,32767]", ""},
	vm.OperandType:   {"type code", 0, 255, "[0,255]", ""},
	vm.OperandSensor: {"sensor", 0, 255, "[0,255]", ""},
	vm.OperandLoc:    {"coordinate", -128, 127, "[-128,127]", ""},
	vm.OperandRel:    {"jump offset", -128, 127, "[-128,127]", "; use pushcl+jumps (PushAddr + Jumps)"},
	vm.OperandHeap:   {"heap index", 0, vm.HeapSlots - 1, fmt.Sprintf("[0,%d)", vm.HeapSlots), ""},
}

// Link is the assembler's one back-end: it lays out addresses, binds
// labels, resolves symbols (labels, then .const, then builtins),
// range-checks and encodes every operand, and runs vm.Verify. Every
// defect is reported, in statement order; a program with any yields no
// code, and verifier findings are only sought once the rest is clean.
func (l *List) Link() (Linked, []Diag) {
	var diags []Diag
	fail := func(i int, format string, args ...any) {
		diags = append(diags, Diag{Index: i, Msg: fmt.Sprintf(format, args...)})
	}

	pcs := make([]int, len(l.Stmts)+1)
	labels := make(map[string]int)
	bind := func(i int, names []string) {
		for _, name := range names {
			if _, dup := labels[name]; dup {
				fail(i, "duplicate label %q", name)
			}
			labels[name] = pcs[i]
		}
	}
	for i, st := range l.Stmts {
		bind(i, st.Labels)
		info, _ := vm.Lookup(st.Op)
		if pcs[i+1] = pcs[i] + info.Size(); pcs[i+1] > maxCode {
			fail(i, "%s pushes the program past %d bytes", info.Name, maxCode)
			return Linked{}, diags
		}
	}
	bind(len(l.Stmts), l.pending)

	// resolve yields the integer an operand of stmt i encodes: a relative
	// jump names a label and encodes its distance, every other kind takes
	// the symbol's value.
	resolve := func(i int, kind vm.OperandKind, o Operand) (int, bool) {
		if v, ok := o.(Val); ok {
			return int(v), true
		}
		name := o.String()
		if kind == vm.OperandRel {
			target, ok := labels[name]
			if !ok {
				fail(i, "unresolved label %q", name)
			}
			return target - pcs[i], ok
		}
		if v, ok := pushtSpecial[name]; ok && kind == vm.OperandType {
			return v, true
		}
		for _, table := range []map[string]int{labels, l.consts, builtins} {
			if v, ok := table[name]; ok {
				return v, true
			}
		}
		fail(i, "cannot resolve operand %q", name)
		return 0, false
	}

	code := make([]byte, 0, pcs[len(l.Stmts)])
	for i, st := range l.Stmts {
		info, _ := vm.Lookup(st.Op)
		code = append(code, byte(st.Op))
		want := 1
		switch info.Kind {
		case vm.OperandNone:
			want = 0
		case vm.OperandLoc:
			want = 2
		}
		if len(st.Args) != want {
			fail(i, "%s takes %d operand(s), got %d", info.Name, want, len(st.Args))
			continue
		}
		if info.Kind == vm.OperandName3 {
			name := st.Args[0].String()
			if len(name) == 0 || len(name) > tuplespace.MaxStringLen {
				fail(i, "pushn name %q must be 1-%d chars", name, tuplespace.MaxStringLen)
			}
			for j := 0; j < len(name); j++ {
				if !vm.ValidNameByte(name[j]) {
					fail(i, "pushn name %q: %q is not a printable name character", name, name[j])
					break
				}
			}
			var buf [3]byte
			copy(buf[:], name)
			code = append(code, buf[:]...)
			continue
		}
		imm := immediates[info.Kind]
		for _, o := range st.Args {
			v, ok := resolve(i, info.Kind, o)
			if ok && (v < imm.lo || v > imm.hi) {
				fail(i, "%s operand %q: %s %d out of %s%s", info.Name, o, imm.what, v, imm.rng, imm.hint)
			}
			if info.Kind == vm.OperandS16 {
				code = append(code, byte(v>>8))
			}
			code = append(code, byte(v))
		}
	}
	if len(diags) > 0 {
		return Linked{}, diags
	}

	rep, err := vm.Verify(code)
	if err != nil {
		for _, ve := range rep.Errors {
			diags = append(diags, Diag{Index: ve.Index, Msg: ve.Msg, Verify: true})
		}
		return Linked{}, diags
	}
	return Linked{Code: code, Report: rep, Stmts: l.Stmts, PCs: pcs[:len(l.Stmts)]}, nil
}

// Assemble compiles source text to bytecode and statically verifies the
// result. Parse errors wrap ErrSyntax, verification findings wrap
// ErrVerify; both carry the source line.
func Assemble(src string) ([]byte, error) {
	u, err := AssembleSource(src)
	return u.Code, err
}

// AssembleSource is Assemble returning the whole linked unit: the
// verifier's report (so package program need not verify a second time)
// and each instruction's statement and byte address, so callers
// (program.Analyze, agilla vet) can position later analysis findings by
// source line the way link errors are positioned here.
func AssembleSource(src string) (Linked, error) {
	l, err := parse(src)
	if err != nil {
		return Linked{}, err
	}
	u, diags := l.Link()
	errs := make([]error, len(diags))
	for i, d := range diags {
		line, sentinel := l.endLine, ErrSyntax
		if d.Index < len(l.Stmts) {
			line = l.Stmts[d.Index].Line
		}
		if d.Verify {
			sentinel = ErrVerify
		}
		errs[i] = fmt.Errorf("line %d: %w: %s", line, sentinel, d.Msg)
	}
	return u, errors.Join(errs...)
}

// parse is the text front-end: a tokenizer producing the statement list.
func parse(src string) (*List, error) {
	l := &List{consts: make(map[string]int)}
	for ln, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, ";"); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		// .const NAME VALUE directive.
		if fields[0] == ".const" {
			if len(fields) != 3 {
				return nil, fmt.Errorf("line %d: %w: %q: want .const NAME VALUE", ln+1, ErrSyntax, strings.Join(fields, " "))
			}
			v, err := strconv.Atoi(fields[2]) // Link range-checks it where used
			if err != nil {
				return nil, fmt.Errorf("line %d: %w: %q is not an integer (.const %s)", ln+1, ErrSyntax, fields[2], fields[1])
			}
			l.consts[fields[1]] = v
			continue
		}
		// A leading address marker ("12:") from disassembler output is
		// ignored, so disassemblies reassemble verbatim.
		if isAddrMarker(fields[0]) {
			fields = fields[1:]
		}
		// Leading labels: tokens that are not mnemonics.
		for len(fields) > 0 {
			name := strings.TrimSuffix(fields[0], ":")
			if _, isOp := vm.ByName(strings.ToLower(name)); isOp && name == fields[0] {
				break
			}
			if !isLabel(name) {
				break
			}
			l.Label(name, ln+1)
			fields = fields[1:]
		}
		if len(fields) == 0 {
			continue // label-only line; binds to next instruction
		}
		op, ok := vm.ByName(strings.ToLower(fields[0]))
		if !ok {
			return nil, fmt.Errorf("line %d: %w: unknown instruction %q", ln+1, ErrSyntax, fields[0])
		}
		args := make([]Operand, len(fields)-1)
		for i, tok := range fields[1:] {
			if v, err := strconv.Atoi(tok); op == vm.OpPushn {
				args[i] = Sym(strings.Trim(tok, `"`))
			} else if err == nil {
				args[i] = Val(v)
			} else {
				args[i] = Sym(tok)
			}
		}
		l.Add(op, ln+1, args...)
	}
	return l, nil
}

func isLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		case r >= 'a' && r <= 'z':
			// Lowercase tokens are mnemonics, not labels.
			return false
		default:
			return false
		}
	}
	return true
}

// isAddrMarker reports whether tok is a disassembler address prefix like
// "12:".
func isAddrMarker(tok string) bool {
	if len(tok) < 2 || tok[len(tok)-1] != ':' {
		return false
	}
	for _, r := range tok[:len(tok)-1] {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// MustAssemble assembles src and panics on error. For tests and the
// built-in example agents only.
func MustAssemble(src string) []byte {
	code, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return code
}

// Disassemble renders bytecode as assembly text, one instruction per
// line, with byte addresses. The output reassembles to the identical
// bytecode (address markers are ignored by Assemble).
func Disassemble(code []byte) (string, error) {
	d, err := vm.Decode(code)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, in := range d.Ins {
		fmt.Fprintf(&sb, "%4d: %s", in.PC, in.Info.Name)
		switch in.Info.Kind {
		case vm.OperandU8, vm.OperandType, vm.OperandSensor, vm.OperandHeap:
			fmt.Fprintf(&sb, " %d", in.Args[0])
		case vm.OperandS16:
			v, _ := in.Imm()
			fmt.Fprintf(&sb, " %d", v)
		case vm.OperandName3:
			fmt.Fprintf(&sb, " %s", strings.TrimRight(string(in.Args), "\x00"))
		case vm.OperandLoc:
			fmt.Fprintf(&sb, " %d %d", int8(in.Args[0]), int8(in.Args[1]))
		case vm.OperandRel:
			fmt.Fprintf(&sb, " %d", int8(in.Args[0]))
		}
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}
