package program

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/vm"
)

// TestFrontEndsShareErrorBodies: the text parser and the Builder are two
// front-ends of one link step, so the same defect reads the same through
// both — only the position prefix (line N / step N ...) and the sentinel
// differ.
func TestFrontEndsShareErrorBodies(t *testing.T) {
	filler := func(b *Builder, n int, push func(*Builder)) *Builder {
		for i := 0; i < n; i++ {
			push(b)
			b.Pop()
		}
		return b
	}
	short := func(b *Builder) { b.PushC(1) }
	long := func(b *Builder) { b.PushCL(1) }
	tests := []struct {
		name     string
		src      string
		built    *Builder
		line     string
		step     string
		sentinel error
		body     string
	}{
		{"pushc range", "pushc 300\nhalt", New().PushC(300).Halt(),
			"line 1", "step 1 (pushc)", asm.ErrSyntax,
			`pushc operand "300": value 300 out of [0,255]; use pushcl`},
		{"pushloc range", "halt\npushloc 200 1", New().Halt().PushLoc(200, 1),
			"line 2", "step 2 (pushloc)", asm.ErrSyntax,
			`pushloc operand "200": coordinate 200 out of [-128,127]`},
		{"heap index", "pushc 1\nsetvar 12\nhalt", New().PushC(1).SetVar(12).Halt(),
			"line 2", "step 2 (setvar)", asm.ErrSyntax,
			`setvar operand "12": heap index 12 out of [0,12)`},
		{"over-long relative jump",
			"rjump FAR\n" + strings.Repeat("pushc 1\npop\n", 100) + "FAR halt",
			filler(New().Jump("FAR"), 100, short).Label("FAR").Halt(),
			"line 1", "step 1 (rjump)", asm.ErrSyntax,
			`rjump operand "FAR": jump offset 302 out of [-128,127]; use pushcl+jumps (PushAddr + Jumps)`},
		{"unresolved label", "TOP pushc 1\nrjumpc NOWHERE\nhalt", New().Label("TOP").PushC(1).JumpC("NOWHERE").Halt(),
			"line 2", `step 2 (rjumpc) after label "TOP"`, asm.ErrSyntax,
			`unresolved label "NOWHERE"`},
		{"duplicate label", "A pushc 1\nA pop\nhalt", New().Label("A").PushC(1).Label("A").Pop().Halt(),
			"line 2", `step 2 (pop) after label "A"`, asm.ErrSyntax,
			`duplicate label "A"`},
		{"over-range absolute address",
			"pushcl FAR\njumps\n" + strings.Repeat("pushcl 1\npop\n", 11000) + "FAR halt",
			filler(New().PushAddr("FAR").Jumps(), 11000, long).Label("FAR").Halt(),
			"line 1", "step 1 (pushcl)", asm.ErrSyntax,
			`pushcl operand "FAR": value 44004 out of [-32768,32767]`},
		{"program size",
			strings.Repeat("pushcl 1\npop\n", 16384),
			filler(New(), 16384, long),
			"line 32768", "step 32768 (pop)", asm.ErrSyntax,
			`pop pushes the program past 65535 bytes`},
		{"verifier finding", "pushc 1\npop\npop\nhalt", New().PushC(1).Pop().Pop().Halt(),
			"line 3", "step 3 (pop)", asm.ErrVerify,
			`stack underflow: pop pops at least 1 value(s) but at most 0 can be on the stack here`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, textErr := asm.Assemble(tt.src)
			_, builtErr := tt.built.Build()
			if textErr == nil || builtErr == nil {
				t.Fatalf("want both front-ends to refuse: text %v, builder %v", textErr, builtErr)
			}
			if !errors.Is(textErr, tt.sentinel) {
				t.Errorf("text error does not wrap %v: %v", tt.sentinel, textErr)
			}
			if !errors.Is(builtErr, ErrVerify) {
				t.Errorf("builder error does not wrap ErrVerify: %v", builtErr)
			}
			if want := fmt.Sprintf("%s: %v: %s", tt.line, tt.sentinel, tt.body); textErr.Error() != want {
				t.Errorf("text error\n got %q\nwant %q", textErr, want)
			}
			if want := fmt.Sprintf("%v: %s: %s", ErrVerify, tt.step, tt.body); builtErr.Error() != want {
				t.Errorf("builder error\n got %q\nwant %q", builtErr, want)
			}
		})
	}
}

// builderCell matches one cell pair of README's "Figure 7 instruction set
// → builder methods" table: opcode(s), mnemonic(s), builder call(s).
var builderCell = regexp.MustCompile("(0x[0-9a-f]{2})(?:–0x[0-9a-f]{2})? \\| `([a-z ]+)` \\| ([^|]+) \\|")

// builderCall matches each method call a builder cell names.
var builderCall = regexp.MustCompile(`[A-Z]\w*\(`)

// TestBuilderMethodsMatchISA walks the ISA table: every opcode has a row
// in README's builder-method table (with its opcode), the method named
// there exists, and calling it links to the same bytes as its mnemonic.
// Every other method a row offers (MoveTo, PushAddr, RoutTo, ...) must at
// least exist.
func TestBuilderMethodsMatchISA(t *testing.T) {
	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		op     vm.Op
		method string
	}
	rows := make(map[string]row) // by mnemonic
	builderType := reflect.TypeOf(New())
	for _, m := range builderCell.FindAllStringSubmatch(string(readme), -1) {
		first, err := strconv.ParseUint(m[1], 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		calls := builderCall.FindAllString(m[3], -1)
		for _, c := range calls {
			if _, ok := builderType.MethodByName(strings.TrimSuffix(c, "(")); !ok {
				t.Errorf("README names Builder method %s), which does not exist", c)
			}
		}
		for i, name := range strings.Fields(m[2]) {
			rows[name] = row{vm.Op(int(first) + i), strings.TrimSuffix(calls[i], "(")}
		}
	}

	// One canonical operand per kind: the Builder arguments and the text.
	operands := map[vm.OperandKind]struct {
		args []any
		text string
	}{
		vm.OperandNone:   {nil, ""},
		vm.OperandU8:     {[]any{200}, " 200"},
		vm.OperandS16:    {[]any{-300}, " -300"},
		vm.OperandName3:  {[]any{"abc"}, " abc"},
		vm.OperandType:   {[]any{4}, " 4"},
		vm.OperandSensor: {[]any{2}, " 2"},
		vm.OperandLoc:    {[]any{3, -2}, " 3 -2"},
		vm.OperandRel:    {[]any{"END"}, " END"},
		vm.OperandHeap:   {[]any{11}, " 11"},
	}
	if len(rows) != len(vm.Ops()) {
		t.Errorf("README table lists %d mnemonics, the ISA has %d", len(rows), len(vm.Ops()))
	}
	for _, op := range vm.Ops() {
		info, _ := vm.Lookup(op)
		t.Run(info.Name, func(t *testing.T) {
			r, ok := rows[info.Name]
			if !ok {
				t.Fatalf("README table has no row for %s", info.Name)
			}
			if r.op != op {
				t.Errorf("README gives %s opcode %#02x, the ISA %#02x", info.Name, byte(r.op), byte(op))
			}
			// The instruction's minimum pops fed by pushc 0 (a zero field
			// count satisfies the tuple family), the instruction, a halt.
			b := New()
			for i := 0; i < info.StackInMin(); i++ {
				b.PushC(0)
			}
			method := reflect.ValueOf(b).MethodByName(r.method)
			var in []reflect.Value
			for i, a := range operands[info.Kind].args {
				in = append(in, reflect.ValueOf(a).Convert(method.Type().In(i)))
			}
			method.Call(in) // variadic field/sensor lists stay empty
			built, err := b.Label("END").Halt().Build()
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			src := strings.Repeat("pushc 0\n", info.StackInMin()) + info.Name + operands[info.Kind].text + "\nEND halt\n"
			if want := asm.MustAssemble(src); string(built.Bytes()) != string(want) {
				t.Errorf("%s() links to %v, %q to %v", r.method, built.Bytes(), src, want)
			}
		})
	}
}
