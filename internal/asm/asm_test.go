package asm

import (
	"errors"
	"strings"
	"testing"

	"github.com/agilla-go/agilla/internal/vm"
)

func TestAssembleSimple(t *testing.T) {
	code, err := Assemble(`
		// a comment
		pushc 42
		pop
		halt
	`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	want := []byte{byte(vm.OpPushc), 42, byte(vm.OpPop), byte(vm.OpHalt)}
	if len(code) != len(want) {
		t.Fatalf("code = %v, want %v", code, want)
	}
	for i := range want {
		if code[i] != want[i] {
			t.Errorf("code[%d] = %#x, want %#x", i, code[i], want[i])
		}
	}
}

func TestLabelsResolve(t *testing.T) {
	code, err := Assemble(`
		TOP pushc 1
		    pop
		    rjump TOP
	`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	// rjump at address 3; TOP at 0; offset -3.
	if off := int8(code[4]); off != -3 {
		t.Errorf("rjump offset = %d, want -3", off)
	}
}

func TestForwardLabel(t *testing.T) {
	code, err := Assemble(`
		     rjumpc DONE
		     halt
		DONE pushc 1
		     pop
		     halt
	`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if off := int8(code[1]); off != 3 {
		t.Errorf("forward offset = %d, want 3", off)
	}
}

func TestFigure2FiretrackerAssembles(t *testing.T) {
	// The FIRETRACKER prologue from Figure 2 of the paper.
	src := `
		BEGIN pushn fir
		      pusht LOCATION
		      pushc 2
		      pushcl FIRE
		      regrxn
		      wait
		FIRE  pop
		      sclone
		      halt
	`
	code, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	rep, err := vm.Verify(code)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if rep.Instructions != 9 {
		t.Errorf("instruction count = %d, want 9", rep.Instructions)
	}
}

func TestFigure8AgentsAssemble(t *testing.T) {
	smove := `
		pushloc 5 1
		smove
		pushloc 0 0
		smove
		halt
	`
	rout := `
		pushc 1
		pushc 1
		pushloc 5 1
		rout
		halt
	`
	for name, src := range map[string]string{"smove": smove, "rout": rout} {
		if _, err := Assemble(src); err != nil {
			t.Errorf("%s agent: %v", name, err)
		}
	}
}

func TestFigure13FiredetectorAssembles(t *testing.T) {
	src := `
		BEGIN pushc TEMPERATURE
		      sense
		      pushcl 200
		      clt
		      rjumpc FIRE
		      pushcl 4800
		      sleep
		      rjump BEGIN
		FIRE  pushn fir
		      loc
		      pushc 2
		      pushloc 0 0
		      rout
		      halt
	`
	code, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if rep, err := vm.Verify(code); err != nil || rep.Instructions != 14 {
		t.Errorf("verify = %d, %v; want 14 instructions", rep.Instructions, err)
	}
}

func TestConstDirective(t *testing.T) {
	code, err := Assemble(`
		.const THRESHOLD 200
		pushcl THRESHOLD
		halt
	`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	v := int16(uint16(code[1])<<8 | uint16(code[2]))
	if v != 200 {
		t.Errorf("const = %d, want 200", v)
	}
}

func TestBuiltinSymbols(t *testing.T) {
	code, err := Assemble(`
		pushc TEMPERATURE
		pusht LOCATION
		pushrt SMOKE
		halt
	`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if code[1] != 1 { // SensorTemperature
		t.Errorf("TEMPERATURE = %d", code[1])
	}
	if code[3] != 3 { // TypeLocation
		t.Errorf("LOCATION = %d", code[3])
	}
	if code[5] != 4 { // SensorSmoke
		t.Errorf("SMOKE = %d", code[5])
	}
}

func TestPushtSensorMeansReadingType(t *testing.T) {
	code, err := Assemble("pusht TEMPERATURE\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	// pusht TEMPERATURE must be the reading-type wildcard (16+1), not the
	// raw sensor code.
	if code[1] != 17 {
		t.Errorf("pusht TEMPERATURE = %d, want 17", code[1])
	}
}

func TestErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		frag string
	}{
		{"unknown op", "frobnicate", "unknown instruction"},
		{"bad operand count", "pushc", "takes 1 operand"},
		{"pushc range", "pushc 300", "out of [0,255]"},
		{"unresolvable", "pushcl NOSUCH", "cannot resolve"},
		{"duplicate label", "A pushc 1\nA pop", "duplicate label"},
		{"pushn too long", `pushn wxyz`, "must be 1-3"},
		{"jump too far", farJumpSrc(), "use pushcl+jumps"},
		{"heap range", "setvar 12", "out of [0,12)"},
		{"pushloc range", "pushloc 200 1", "out of [-128,127]"},
		{"bad const", ".const X Y", "not an integer"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Assemble(tt.src)
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), tt.frag) {
				t.Errorf("error %q does not mention %q", err, tt.frag)
			}
		})
	}
}

func farJumpSrc() string {
	var sb strings.Builder
	sb.WriteString("rjump FAR\n")
	for i := 0; i < 100; i++ {
		sb.WriteString("pushc 1\npop\n")
	}
	sb.WriteString("FAR halt\n")
	return sb.String()
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
		pushc 5
		pushcl 1000
		pushn fir
		pusht VALUE
		pushloc 3 -2
		rjump 2
		setvar 4
		getvar 4
		out
		halt
	`
	code, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	text, err := Disassemble(code)
	if err != nil {
		t.Fatalf("disassemble: %v", err)
	}
	for _, frag := range []string{"pushc 5", "pushcl 1000", "pushn fir", "pushloc 3 -2", "setvar 4", "halt"} {
		if !strings.Contains(text, frag) {
			t.Errorf("disassembly missing %q:\n%s", frag, text)
		}
	}
	// Reassembling the disassembly (addresses stripped) must produce the
	// identical bytecode.
	var clean strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if i := strings.Index(line, ":"); i >= 0 {
			line = line[i+1:]
		}
		clean.WriteString(line + "\n")
	}
	code2, err := Assemble(clean.String())
	if err != nil {
		t.Fatalf("reassemble: %v", err)
	}
	if len(code) != len(code2) {
		t.Fatalf("round trip length %d != %d", len(code2), len(code))
	}
	for i := range code {
		if code[i] != code2[i] {
			t.Errorf("round trip byte %d: %#x != %#x", i, code2[i], code[i])
		}
	}
}

func TestDisassembleRejectsTruncated(t *testing.T) {
	code := []byte{byte(vm.OpPushcl), 1} // missing second operand byte
	if _, err := Disassemble(code); err == nil {
		t.Error("truncated operands must not disassemble")
	}
}

func TestDisassembleRejectsUnknownOpcode(t *testing.T) {
	if _, err := Disassemble([]byte{0xee}); err == nil {
		t.Error("unknown opcode must not disassemble")
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble must panic on bad source")
		}
	}()
	MustAssemble("nonsense")
}

func TestSemicolonComments(t *testing.T) {
	code, err := Assemble("pushc 1 ; trailing comment\nhalt")
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if len(code) != 3 {
		t.Errorf("code length = %d, want 3", len(code))
	}
}

// TestFullISARoundTrip disassembles and reassembles a minimal verified
// program for every opcode in the ISA table (Figure 7), asserting the
// round trip is byte-identical — including the disassembler's address
// markers, which the assembler must ignore.
func TestFullISARoundTrip(t *testing.T) {
	operandText := func(info vm.Info) string {
		switch info.Kind {
		case vm.OperandU8:
			return " 200"
		case vm.OperandS16:
			return " -300"
		case vm.OperandName3:
			return " abc"
		case vm.OperandType:
			return " 4"
		case vm.OperandSensor:
			return " 2"
		case vm.OperandLoc:
			return " 3 -2"
		case vm.OperandRel:
			return " 2" // forward to the trailing halt
		case vm.OperandHeap:
			return " 11"
		default:
			return ""
		}
	}
	for _, op := range vm.Ops() {
		info, _ := vm.Lookup(op)
		t.Run(info.Name, func(t *testing.T) {
			// Feed the instruction's minimum pops with pushc 0 (a zero
			// field count satisfies the variable-arity tuple ops), then
			// the instruction, then a halt.
			var sb strings.Builder
			for i := 0; i < info.StackInMin(); i++ {
				sb.WriteString("pushc 0\n")
			}
			sb.WriteString(info.Name + operandText(info) + "\n")
			sb.WriteString("halt\n")

			code, err := Assemble(sb.String())
			if err != nil {
				t.Fatalf("assemble %q: %v", sb.String(), err)
			}
			text, err := Disassemble(code)
			if err != nil {
				t.Fatalf("disassemble: %v", err)
			}
			if !strings.Contains(text, info.Name) {
				t.Fatalf("disassembly missing %q:\n%s", info.Name, text)
			}
			code2, err := Assemble(text)
			if err != nil {
				t.Fatalf("reassemble %q: %v", text, err)
			}
			if string(code) != string(code2) {
				t.Errorf("round trip differs:\n%v\n%v\nvia\n%s", code, code2, text)
			}
		})
	}
}

// TestErrorsCarryLineAndToken asserts the satellite requirement: every
// ErrSyntax wrap names the source line and the offending token.
func TestErrorsCarryLineAndToken(t *testing.T) {
	tests := []struct {
		name  string
		src   string
		frags []string
	}{
		{"unknown op", "halt\nfrobnicate", []string{"line 2", `"frobnicate"`}},
		{"bad operand count", "halt\n\npushc", []string{"line 3", "pushc takes 1 operand"}},
		{"pushc range", "pushc 300\nhalt", []string{"line 1", `"300"`, "use pushcl"}},
		{"unresolvable", "pushcl NOSUCH\npop\nhalt", []string{"line 1", `"NOSUCH"`}},
		{"duplicate label", "A pushc 1\nA pop\nhalt", []string{"line 2", `"A"`}},
		{"pushn too long", "halt\npushn wxyz", []string{"line 2", `"wxyz"`}},
		{"pushn bad char", "pushn a/b\npop\nhalt", []string{"line 1", `"a/b"`, "name character"}},
		{"pushloc range", "pushloc 200 1\nsmove\nhalt", []string{"line 1", `"200"`}},
		{"heap range", "pushc 1\nsetvar 12\nhalt", []string{"line 2", `"12"`, "out of [0,12)"}},
		{"bad const value", ".const X Y\nhalt", []string{"line 1", `"Y"`}},
		{"bad const usage", ".const X\nhalt", []string{"line 1", ".const NAME VALUE"}},
		{"unknown jump target", "rjump 9999\nhalt", []string{"line 1", `"9999"`}},
		{"pushrt range", "pushrt 300\npop\nhalt", []string{"line 1", `"300"`}},
		{"pusht range", "pusht 300\npop\nhalt", []string{"line 1", `"300"`}},
		// A label past byte 32767 does not fit pushcl; it used to wrap negative.
		{"far label", "pushcl FAR\njumps\n" + strings.Repeat("pushcl 1\npop\n", 11000) + "FAR halt", []string{"line 1", `"FAR"`, "value 44004 out of [-32768,32767]"}},
		{"trailing duplicate label", "A halt\n\nA", []string{"line 3", `duplicate label "A"`}},
		{"every error", "pushc 300\nsetvar 12\nhalt", []string{"line 1", "line 2", "heap index 12"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Assemble(tt.src)
			if err == nil {
				t.Fatal("want error")
			}
			if !errors.Is(err, ErrSyntax) {
				t.Errorf("error does not wrap ErrSyntax: %v", err)
			}
			for _, frag := range tt.frags {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("error %q does not mention %q", err, frag)
				}
			}
		})
	}
}

// TestVerifierErrorsCarryLine asserts assembler-surfaced verifier
// findings are positioned at the offending source line.
func TestVerifierErrorsCarryLine(t *testing.T) {
	tests := []struct {
		name  string
		src   string
		frags []string
	}{
		{"stack underflow", "pushc 1\npop\npop\nhalt", []string{"line 3", "underflow"}},
		{"run off end", "pushc 1\npop", []string{"line 2", "off the end"}},
		{"jump into operand", "pushc 1\npop\nrjump -2\nhalt", []string{"line 3", "inside an instruction"}},
		{"bad reaction entry", "pusht VALUE\npushc 1\npushcl 99\nregrxn\nhalt", []string{"line 3", "reaction entry"}},
		{"no instructions", "// only a comment\n", []string{"line 0", "empty program"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Assemble(tt.src)
			if err == nil {
				t.Fatal("want error")
			}
			if !errors.Is(err, ErrVerify) {
				t.Errorf("error does not wrap ErrVerify: %v", err)
			}
			for _, frag := range tt.frags {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("error %q does not mention %q", err, frag)
				}
			}
		})
	}
}

// TestAddressMarkersIgnored: the assembler must skip the "NN:" prefixes
// that Disassemble emits.
func TestAddressMarkersIgnored(t *testing.T) {
	a, err := Assemble("pushc 5\npop\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Assemble("   0: pushc 5\n   2: pop\n   3: halt")
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("%v != %v", a, b)
	}
}
