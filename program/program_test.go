package program

import (
	"errors"
	"strings"
	"testing"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/vm"
)

// TestLibraryGolden is the acceptance check for the builder: every
// library program built with the typed API must be byte-identical to its
// assembled source listing.
func TestLibraryGolden(t *testing.T) {
	entries := Library()
	if len(entries) < 5 {
		t.Fatalf("library has only %d entries", len(entries))
	}
	for _, e := range entries {
		t.Run(e.Name, func(t *testing.T) {
			want := asm.MustAssemble(e.Source)
			got := e.Program.Bytes()
			if string(got) != string(want) {
				t.Errorf("builder bytes differ from assembled source\nasm:     %v\nbuilder: %v\n\nbuilder disassembly:\n%s",
					want, got, e.Program.Disassemble())
			}
		})
	}
}

func TestLibraryGet(t *testing.T) {
	e, ok := Get("fire-tracker")
	if !ok || e.Figure != "Figure 2" {
		t.Fatalf("Get(fire-tracker) = %+v, %v", e, ok)
	}
	if _, ok := Get("no-such-agent"); ok {
		t.Error("Get must miss on unknown names")
	}
}

func TestThreeAuthoringFormsConverge(t *testing.T) {
	built := New("greeter").
		PushC(7).Putled().
		PushN("hi").Loc().PushC(2).Out().
		Halt().
		MustBuild()

	parsed, err := Parse(`
		pushc 7
		putled
		pushn hi
		loc
		pushc 2
		out
		halt
	`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	loaded, err := FromBytes(parsed.Bytes())
	if err != nil {
		t.Fatalf("from bytes: %v", err)
	}

	if string(built.Bytes()) != string(parsed.Bytes()) {
		t.Errorf("builder %v != parsed %v", built.Bytes(), parsed.Bytes())
	}
	if string(loaded.Bytes()) != string(parsed.Bytes()) {
		t.Errorf("loaded %v != parsed %v", loaded.Bytes(), parsed.Bytes())
	}
}

func TestProgramAccessors(t *testing.T) {
	p := MustParse("pushc 1\npushc 2\nadd\npop\nhalt").WithName("sum")
	if p.Name() != "sum" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.Len() != 7 {
		t.Errorf("Len = %d, want 7", p.Len())
	}
	if p.Instructions() != 5 {
		t.Errorf("Instructions = %d, want 5", p.Instructions())
	}
	if p.MaxStackDepth() != 2 {
		t.Errorf("MaxStackDepth = %d, want 2", p.MaxStackDepth())
	}
	if p.Source() == "" {
		t.Error("Source lost")
	}
	if s := p.String(); !strings.Contains(s, "sum") || !strings.Contains(s, "7 bytes") {
		t.Errorf("String = %q", s)
	}
	// Bytes returns a copy: mutating it must not corrupt the program.
	b := p.Bytes()
	b[0] = 0xee
	if _, err := FromBytes(p.Bytes()); err != nil {
		t.Errorf("program corrupted through Bytes: %v", err)
	}
}

func TestDisassembleReassembles(t *testing.T) {
	for _, e := range Library() {
		code, err := asm.Assemble(e.Program.Disassemble())
		if err != nil {
			t.Fatalf("%s: disassembly does not reassemble: %v", e.Name, err)
		}
		if string(code) != string(e.Program.Bytes()) {
			t.Errorf("%s: round trip differs", e.Name)
		}
	}
}

// --- builder error positioning ---

func TestBuilderUnresolvedLabel(t *testing.T) {
	_, err := New().PushC(1).Label("TOP").Pop().JumpC("NOWHERE").Halt().Build()
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, ErrVerify) {
		t.Errorf("error does not wrap ErrVerify: %v", err)
	}
	for _, frag := range []string{`unresolved label "NOWHERE"`, "step 3", `after label "TOP"`} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
}

func TestBuilderHeapRange(t *testing.T) {
	_, err := New().PushC(1).SetVar(vm.HeapSlots).Halt().Build()
	if err == nil || !strings.Contains(err.Error(), "heap index 12 out of [0,12)") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "step 2") {
		t.Errorf("error %q missing position", err)
	}
}

func TestBuilderStackUnderflow(t *testing.T) {
	_, err := New().Pop().Halt().Build()
	if err == nil || !strings.Contains(err.Error(), "underflow") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "step 1 (pop)") {
		t.Errorf("error %q missing position", err)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	_, err := New().Label("A").PushC(1).Label("A").Pop().Halt().Build()
	if err == nil || !strings.Contains(err.Error(), `duplicate label "A"`) {
		t.Fatalf("err = %v", err)
	}
}

func TestBuilderJumpTooFar(t *testing.T) {
	b := New().Label("TOP").Halt()
	for i := 0; i < 100; i++ {
		b.PushC(1).Pop()
	}
	_, err := b.Jump("TOP").Build()
	if err == nil || !strings.Contains(err.Error(), "use pushcl+jumps (PushAddr + Jumps)") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuilderBadImmediates(t *testing.T) {
	cases := map[string]*Builder{
		"pushc range": New().PushC(300).Halt(),
		"pushn long":  New().PushN("wxyz").Halt(),
		"pushn empty": New().PushN("").Halt(),
		"pushn space": New().PushN("a b").Pop().Halt(),
		"pushn slash": New().PushN("a/b").Pop().Halt(),
		"pushloc":     New().PushLoc(200, 0).Halt(),
		"pushcl":      New().PushCL(1 << 20).Halt(),
		"empty":       New(),
	}
	for name, b := range cases {
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestBuilderCollectsMultipleErrors(t *testing.T) {
	_, err := New().PushC(300).GetVar(99).Halt().Build()
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "value 300 out of [0,255]") || !strings.Contains(err.Error(), "heap index 99") {
		t.Errorf("not all errors reported: %v", err)
	}
}

func TestFromBytesRejects(t *testing.T) {
	_, err := FromBytes([]byte{byte(vm.OpPop), byte(vm.OpHalt)})
	if err == nil || !errors.Is(err, ErrVerify) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "pc=0") {
		t.Errorf("error %q missing pc position", err)
	}
}

func TestFromBytesReportsAllFindings(t *testing.T) {
	// Both the bad heap index and the guaranteed underflow must surface.
	_, err := FromBytes([]byte{
		byte(vm.OpSetvar), vm.HeapSlots,
		byte(vm.OpHalt),
	})
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "heap index") || !strings.Contains(err.Error(), "underflow") {
		t.Errorf("error %q does not report all findings", err)
	}
	var ve *vm.VerifyError
	if !errors.As(err, &ve) {
		t.Errorf("findings lost their typed pc positions: %v", err)
	}
}

func TestFromBytesRejectsUnprintableName(t *testing.T) {
	// A pushn name with a space disassembles ambiguously, so the
	// verifier must keep it out of a Program.
	_, err := FromBytes([]byte{byte(vm.OpPushn), 'a', ' ', 'b', byte(vm.OpPop), byte(vm.OpHalt)})
	if err == nil || !strings.Contains(err.Error(), "name character") {
		t.Fatalf("err = %v", err)
	}
	// Zero padding must appear only after the name.
	_, err = FromBytes([]byte{byte(vm.OpPushn), 'a', 0, 'b', byte(vm.OpPop), byte(vm.OpHalt)})
	if err == nil {
		t.Fatal("embedded NUL in a name must be rejected")
	}
}

// --- combinators ---

func TestIfShape(t *testing.T) {
	// If must run the body exactly when the condition is set.
	p := New().
		PushC(1).PushC(1).Ceq(). // condition := 1
		If(func(b *Builder) { b.PushC(42).Pop() }).
		Halt().
		MustBuild()
	// rjumpc +2? Shape: rjumpc $then(+4); rjump $end; $then: pushc 42; pop; $end: halt
	dis := p.Disassemble()
	for _, frag := range []string{"rjumpc 4", "rjump", "pushc 42"} {
		if !strings.Contains(dis, frag) {
			t.Errorf("disassembly missing %q:\n%s", frag, dis)
		}
	}
}

func TestIfElseMatchesPaperIdiom(t *testing.T) {
	// IfElse must compile to the exact FIRETRACKER presence-check shape.
	built := New().
		Rdp(Str("trk")).
		IfElse(
			func(b *Builder) { b.Pop().Pop() },
			func(b *Builder) { b.Out(Str("trk")) },
		).
		Halt().
		MustBuild()
	want := asm.MustAssemble(`
		      pushn trk
		      pushc 1
		      rdp
		      rjumpc TPOP
		      pushn trk
		      pushc 1
		      out
		      rjump END
		TPOP  pop
		      pop
		END   halt
	`)
	if string(built.Bytes()) != string(want) {
		t.Errorf("IfElse shape differs\nasm:     %v\nbuilder: %v", want, built.Bytes())
	}
}

func TestLoopShape(t *testing.T) {
	p := New().
		Loop(func(b *Builder) { b.PushC(1).Pop() }).
		MustBuild()
	want := asm.MustAssemble(`
		TOP pushc 1
		    pop
		    rjump TOP
	`)
	if string(p.Bytes()) != string(want) {
		t.Errorf("Loop shape differs: %v != %v", p.Bytes(), want)
	}
}

func TestForEachNeighborMatchesScanPattern(t *testing.T) {
	built := New().
		ForEachNeighbor(11, func(b *Builder) { b.Wclone() }).
		Halt().
		MustBuild()
	want := asm.MustAssemble(`
		      pushc 0
		      setvar 11
		LOOP  getvar 11
		      getnbr
		      rjumpc BODY
		      rjump END
		BODY  wclone
		      getvar 11
		      inc
		      setvar 11
		      rjump LOOP
		END   pop
		      halt
	`)
	if string(built.Bytes()) != string(want) {
		t.Errorf("ForEachNeighbor shape differs\nasm:     %v\nbuilder: %v", want, built.Bytes())
	}
}

func TestForEachNeighborBadSlot(t *testing.T) {
	_, err := New().ForEachNeighbor(12, func(b *Builder) { b.Pop() }).Halt().Build()
	if err == nil || !strings.Contains(err.Error(), "heap index 12") {
		t.Fatalf("err = %v", err)
	}
}

func TestReactMatchesFigure2(t *testing.T) {
	// The React combinator must emit the exact Figure 2 prologue.
	built := New().
		React(Tmpl(Str("fir"), TypeV(TypeLocation)), func(b *Builder) {
			b.Pop().Sclone().Halt()
		}).
		MustBuild()
	want := asm.MustAssemble(`
		BEGIN pushn fir
		      pusht LOCATION
		      pushc 2
		      pushcl FIRE
		      regrxn
		      wait
		FIRE  pop
		      sclone
		      halt
	`)
	if string(built.Bytes()) != string(want) {
		t.Errorf("React shape differs\nasm:     %v\nbuilder: %v", want, built.Bytes())
	}
}

func TestHighLevelRemoteOps(t *testing.T) {
	dest := topology.Loc(3, 2)
	built := New().
		RoutTo(dest, Str("abc"), Int(300)).
		RinpFrom(dest, TypeV(TypeValue)).
		Pop().
		RrdpFrom(dest, TypeV(TypeValue)).
		Pop().
		Halt().
		MustBuild()
	want := asm.MustAssemble(`
		pushn abc
		pushcl 300
		pushc 2
		pushloc 3 2
		rout
		pusht VALUE
		pushc 1
		pushloc 3 2
		rinp
		pop
		pusht VALUE
		pushc 1
		pushloc 3 2
		rrdp
		pop
		halt
	`)
	if string(built.Bytes()) != string(want) {
		t.Errorf("remote ops differ\nasm:     %v\nbuilder: %v", want, built.Bytes())
	}
}

func TestSenseConvenience(t *testing.T) {
	a := New().Sense(SensorTemperature).Pop().Halt().MustBuild()
	b := New().PushC(1).Sense().Pop().Halt().MustBuild()
	if string(a.Bytes()) != string(b.Bytes()) {
		t.Errorf("Sense(TEMPERATURE) %v != PushC+Sense %v", a.Bytes(), b.Bytes())
	}
}
