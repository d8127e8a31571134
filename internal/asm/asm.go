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
// Every assembled program is additionally checked by the shared static
// verifier (internal/vm.Verify): jump targets must land on instruction
// boundaries, heap indices must be in range, and the worst-case stack
// analysis must not prove a guaranteed underflow or overflow. Verifier
// findings are reported with the source line of the offending
// instruction and wrap ErrVerify.
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
var builtins = map[string]int16{
	// Sensor type codes (for pushc + sense, and pushrt).
	"TEMPERATURE": int16(tuplespace.SensorTemperature),
	"PHOTO":       int16(tuplespace.SensorPhoto),
	"SOUND":       int16(tuplespace.SensorSound),
	"SMOKE":       int16(tuplespace.SensorSmoke),
	// Field type codes (for pusht).
	"ANY":      int16(tuplespace.TypeAny),
	"VALUE":    int16(tuplespace.TypeValue),
	"STRING":   int16(tuplespace.TypeString),
	"LOCATION": int16(tuplespace.TypeLocation),
	"READING":  int16(tuplespace.TypeReading),
	"AGENTID":  int16(tuplespace.TypeAgentID),
}

// pushtSpecial lets `pusht TEMPERATURE` mean "readings of the temperature
// sensor" rather than the raw sensor code, as the FIRETRACKER agent
// expects.
var pushtSpecial = map[string]int16{
	"TEMPERATURE": int16(tuplespace.TypeOfSensor(tuplespace.SensorTemperature)),
	"PHOTO":       int16(tuplespace.TypeOfSensor(tuplespace.SensorPhoto)),
	"SOUND":       int16(tuplespace.TypeOfSensor(tuplespace.SensorSound)),
	"SMOKE":       int16(tuplespace.TypeOfSensor(tuplespace.SensorSmoke)),
}

type stmt struct {
	line int
	op   vm.Op
	info vm.Info
	args []string
	addr int
}

// result is one assembled, verified program.
type result struct {
	code  []byte
	rep   vm.VerifyReport
	stmts []stmt // one per instruction, in program order
}

// Assemble compiles source text to bytecode and statically verifies the
// result. Parse errors wrap ErrSyntax, verification findings wrap
// ErrVerify; both carry the source line.
func Assemble(src string) ([]byte, error) {
	res, err := assemble(src)
	return res.code, err
}

// AssembleWithLines is Assemble additionally returning the static
// verifier's report (so package program need not verify a second time)
// and a map from each instruction's byte address to its 1-based source
// line, so callers (program.Analyze, agilla vet) can position later
// analysis findings the same way verification findings are positioned
// here.
func AssembleWithLines(src string) ([]byte, vm.VerifyReport, map[int]int, error) {
	res, err := assemble(src)
	if err != nil {
		return nil, vm.VerifyReport{}, nil, err
	}
	pcLines := make(map[int]int, len(res.stmts))
	for _, st := range res.stmts {
		pcLines[st.addr] = st.line
	}
	return res.code, res.rep, pcLines, nil
}

func assemble(src string) (result, error) {
	lines := strings.Split(src, "\n")
	labels := make(map[string]int)
	consts := make(map[string]int16)
	var stmts []stmt
	addr := 0

	for ln, raw := range lines {
		line := raw
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
				return result{}, fmt.Errorf("line %d: %w: %q: want .const NAME VALUE", ln+1, ErrSyntax, strings.Join(fields, " "))
			}
			v, err := parseInt(fields[2], -32768, 32767)
			if err != nil {
				return result{}, fmt.Errorf("line %d: %w (.const %s)", ln+1, err, fields[1])
			}
			consts[fields[1]] = int16(v)
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
			if _, dup := labels[name]; dup {
				return result{}, fmt.Errorf("line %d: %w: duplicate label %q", ln+1, ErrSyntax, name)
			}
			labels[name] = addr
			fields = fields[1:]
		}
		if len(fields) == 0 {
			continue // label-only line; binds to next instruction
		}
		op, ok := vm.ByName(strings.ToLower(fields[0]))
		if !ok {
			return result{}, fmt.Errorf("line %d: %w: unknown instruction %q", ln+1, ErrSyntax, fields[0])
		}
		info, _ := vm.Lookup(op)
		st := stmt{line: ln + 1, op: op, info: info, args: fields[1:], addr: addr}
		stmts = append(stmts, st)
		addr += info.Size()
		if addr > 65535 {
			return result{}, fmt.Errorf("line %d: %w: %q pushes the program past 65535 bytes", st.line, ErrSyntax, fields[0])
		}
	}

	resolve := func(tok string, st stmt) (int16, error) {
		if v, ok := labels[tok]; ok {
			return int16(v), nil
		}
		if v, ok := consts[tok]; ok {
			return v, nil
		}
		if v, ok := builtins[tok]; ok {
			return v, nil
		}
		v, err := parseInt(tok, -32768, 32767)
		if err != nil {
			return 0, fmt.Errorf("line %d: %w: cannot resolve operand %q", st.line, ErrSyntax, tok)
		}
		return int16(v), nil
	}

	code := make([]byte, 0, addr)
	for _, st := range stmts {
		if err := checkArity(st); err != nil {
			return result{}, err
		}
		code = append(code, byte(st.op))
		// Operand encoding is driven by the ISA metadata's operand kind;
		// only pushc and pusht need instruction-specific handling (the
		// sensor-name convenience mappings).
		switch st.info.Kind {
		case vm.OperandNone:
			// no operand bytes

		case vm.OperandU8: // pushc
			v, err := resolve(st.args[0], st)
			if err != nil {
				return result{}, err
			}
			if v < 0 || v > 255 {
				return result{}, fmt.Errorf("line %d: %w: %s operand %q = %d out of [0,255]; use pushcl", st.line, ErrSyntax, st.info.Name, st.args[0], v)
			}
			code = append(code, byte(v))

		case vm.OperandS16: // pushcl
			v, err := resolve(st.args[0], st)
			if err != nil {
				return result{}, err
			}
			code = append(code, byte(uint16(v)>>8), byte(uint16(v)))

		case vm.OperandName3: // pushn
			name := strings.Trim(st.args[0], `"`)
			if len(name) == 0 || len(name) > tuplespace.MaxStringLen {
				return result{}, fmt.Errorf("line %d: %w: pushn name %q must be 1-%d chars", st.line, ErrSyntax, st.args[0], tuplespace.MaxStringLen)
			}
			for i := 0; i < len(name); i++ {
				if !vm.ValidNameByte(name[i]) {
					return result{}, fmt.Errorf("line %d: %w: pushn name %q: %q is not a printable name character", st.line, ErrSyntax, name, name[i])
				}
			}
			var buf [3]byte
			copy(buf[:], name)
			code = append(code, buf[:]...)

		case vm.OperandType: // pusht
			tok := st.args[0]
			var v int16
			if sv, ok := pushtSpecial[tok]; ok {
				v = sv
			} else {
				var err error
				v, err = resolve(tok, st)
				if err != nil {
					return result{}, err
				}
			}
			if v < 0 || v > 255 {
				return result{}, fmt.Errorf("line %d: %w: pusht code %q = %d out of [0,255]", st.line, ErrSyntax, tok, v)
			}
			code = append(code, byte(v))

		case vm.OperandSensor: // pushrt
			v, err := resolve(st.args[0], st)
			if err != nil {
				return result{}, err
			}
			if v < 0 || v > 255 {
				return result{}, fmt.Errorf("line %d: %w: pushrt sensor %q = %d out of [0,255]", st.line, ErrSyntax, st.args[0], v)
			}
			code = append(code, byte(v))

		case vm.OperandLoc: // pushloc
			x, err := resolve(st.args[0], st)
			if err != nil {
				return result{}, err
			}
			y, err := resolve(st.args[1], st)
			if err != nil {
				return result{}, err
			}
			if x < -128 || x > 127 || y < -128 || y > 127 {
				return result{}, fmt.Errorf("line %d: %w: pushloc coordinates %q %q out of [-128,127]", st.line, ErrSyntax, st.args[0], st.args[1])
			}
			code = append(code, byte(int8(x)), byte(int8(y)))

		case vm.OperandRel: // rjump, rjumpc
			var off int
			if target, ok := labels[st.args[0]]; ok {
				off = target - st.addr
			} else {
				v, err := parseInt(st.args[0], -128, 127)
				if err != nil {
					return result{}, fmt.Errorf("line %d: %w: unknown jump target %q", st.line, ErrSyntax, st.args[0])
				}
				off = v
			}
			if off < -128 || off > 127 {
				return result{}, fmt.Errorf("line %d: %w: jump to %q spans %d bytes (max ±128); use pushcl+jumps", st.line, ErrSyntax, st.args[0], off)
			}
			code = append(code, byte(int8(off)))

		case vm.OperandHeap: // getvar, setvar
			v, err := resolve(st.args[0], st)
			if err != nil {
				return result{}, err
			}
			if v < 0 || int(v) >= vm.HeapSlots {
				return result{}, fmt.Errorf("line %d: %w: heap address %q = %d out of [0,%d)", st.line, ErrSyntax, st.args[0], v, vm.HeapSlots)
			}
			code = append(code, byte(v))

		default:
			return result{}, fmt.Errorf("line %d: %w: internal: unhandled operand kind for %s", st.line, ErrSyntax, st.info.Name)
		}
	}

	// Static verification with findings mapped back to source lines.
	rep, err := vm.Verify(code)
	if err != nil {
		errs := make([]error, 0, len(rep.Errors))
		for _, ve := range rep.Errors {
			line := 0 // an empty program has no statement to blame
			if ve.Index < len(stmts) {
				line = stmts[ve.Index].line
			}
			errs = append(errs, fmt.Errorf("line %d: %w: %s", line, ErrVerify, ve.Msg))
		}
		return result{}, errors.Join(errs...)
	}
	return result{code: code, rep: rep, stmts: stmts}, nil
}

func checkArity(st stmt) error {
	want := 1
	switch st.info.Kind {
	case vm.OperandNone:
		want = 0
	case vm.OperandLoc:
		want = 2
	}
	if len(st.args) != want {
		return fmt.Errorf("line %d: %w: %s takes %d operand(s), got %d", st.line, ErrSyntax, st.info.Name, want, len(st.args))
	}
	return nil
}

func parseInt(s string, lo, hi int) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %q is not an integer", ErrSyntax, s)
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("%w: %q = %d out of [%d,%d]", ErrSyntax, s, v, lo, hi)
	}
	return v, nil
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
