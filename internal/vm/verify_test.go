package vm

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestVerifyMetadataConsistent(t *testing.T) {
	for _, op := range Ops() {
		info, _ := Lookup(op)
		if info.Operands != info.Kind.Bytes() {
			t.Errorf("%s: Operands=%d but Kind.Bytes()=%d", info.Name, info.Operands, info.Kind.Bytes())
		}
		if info.In != len(info.pops) || info.Out != len(info.pushes) {
			t.Errorf("%s: In/Out = %d/%d but the row lists %d pops, %d pushes", info.Name, info.In, info.Out, len(info.pops), len(info.pushes))
		}
	}
}

func TestVerifyAcceptsStraightLine(t *testing.T) {
	// pushc 5; pushc 7; add; pop; halt
	code := []byte{byte(OpPushc), 5, byte(OpPushc), 7, byte(OpAdd), byte(OpPop), byte(OpHalt)}
	rep, err := Verify(code)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if rep.Instructions != 5 {
		t.Errorf("Instructions = %d, want 5", rep.Instructions)
	}
	if rep.MaxStackDepth != 2 {
		t.Errorf("MaxStackDepth = %d, want 2", rep.MaxStackDepth)
	}
	if rep.MayOverflow || rep.DynamicJumps {
		t.Errorf("unexpected flags in %+v", rep)
	}
}

func TestVerifyRejectsEmpty(t *testing.T) {
	if _, err := Verify(nil); err == nil {
		t.Error("empty program must fail")
	}
}

func TestVerifyRejectsUnknownOpcode(t *testing.T) {
	_, err := Verify([]byte{0xee})
	var ve *VerifyError
	if !errors.As(err, &ve) || ve.PC != 0 {
		t.Fatalf("want VerifyError at pc 0, got %v", err)
	}
}

func TestVerifyRejectsTruncated(t *testing.T) {
	_, err := Verify([]byte{byte(OpHalt), byte(OpPushcl), 1})
	var ve *VerifyError
	if !errors.As(err, &ve) || ve.PC != 1 {
		t.Fatalf("want VerifyError at pc 1, got %v", err)
	}
}

func TestVerifyRejectsGuaranteedUnderflow(t *testing.T) {
	// pop with an empty stack, every path.
	_, err := Verify([]byte{byte(OpPop), byte(OpHalt)})
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("want VerifyError, got %v", err)
	}
	if ve.PC != 0 || !strings.Contains(ve.Msg, "underflow") {
		t.Errorf("got pc=%d msg=%q", ve.PC, ve.Msg)
	}
}

func TestVerifyRejectsGuaranteedOverflow(t *testing.T) {
	// 17 unconditional pushes overflow the 16-slot stack.
	var code []byte
	for i := 0; i < StackDepth+1; i++ {
		code = append(code, byte(OpPushc), 1)
	}
	code = append(code, byte(OpHalt))
	_, err := Verify(code)
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("want VerifyError, got %v", err)
	}
	if ve.PC != 2*StackDepth || !strings.Contains(ve.Msg, "overflow") {
		t.Errorf("got pc=%d msg=%q", ve.PC, ve.Msg)
	}
}

func TestVerifyRejectsBadHeapIndex(t *testing.T) {
	_, err := Verify([]byte{byte(OpGetvar), HeapSlots, byte(OpPop), byte(OpHalt)})
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("want VerifyError, got %v", err)
	}
	if ve.PC != 0 || !strings.Contains(ve.Msg, "heap index") {
		t.Errorf("got pc=%d msg=%q", ve.PC, ve.Msg)
	}
}

func TestVerifyRejectsJumpOutsideCode(t *testing.T) {
	_, err := Verify([]byte{byte(OpRjump), 100, byte(OpHalt)})
	var ve *VerifyError
	if !errors.As(err, &ve) || !strings.Contains(ve.Msg, "outside code") {
		t.Fatalf("want jump-bounds VerifyError, got %v", err)
	}
}

func TestVerifyRejectsJumpIntoOperands(t *testing.T) {
	// rjump 3 lands on the immediate byte of the pushc at pc 2.
	_, err := Verify([]byte{byte(OpRjump), 3, byte(OpPushc), 5, byte(OpPop), byte(OpHalt)})
	var ve *VerifyError
	if !errors.As(err, &ve) || !strings.Contains(ve.Msg, "inside an instruction") {
		t.Fatalf("want boundary VerifyError, got %v", err)
	}
}

func TestVerifyRejectsRunOffEnd(t *testing.T) {
	_, err := Verify([]byte{byte(OpPushc), 5, byte(OpPop)})
	var ve *VerifyError
	if !errors.As(err, &ve) || !strings.Contains(ve.Msg, "off the end") {
		t.Fatalf("want off-the-end VerifyError, got %v", err)
	}
}

func TestVerifyRejectsBadReactionEntry(t *testing.T) {
	// pushcl 99 feeding regrxn: 99 is far outside the code.
	code := []byte{
		byte(OpPusht), 1, byte(OpPushc), 1, // template <VALUE>, count
		byte(OpPushcl), 0, 99, byte(OpRegrxn),
		byte(OpHalt),
	}
	_, err := Verify(code)
	var ve *VerifyError
	if !errors.As(err, &ve) || !strings.Contains(ve.Msg, "reaction entry") {
		t.Fatalf("want reaction-entry VerifyError, got %v", err)
	}
}

func TestVerifyReactionEntryHasUnknownStack(t *testing.T) {
	// The Figure 2 shape: code after wait is reachable only through the
	// reaction entry, where the firing pushes an unknown number of
	// values; the pops there must not be flagged.
	code := []byte{
		byte(OpPushn), 'f', 'i', 'r', // pushn fir
		byte(OpPusht), 3, // pusht LOCATION
		byte(OpPushc), 2, // count
		byte(OpPushcl), 0, 13, // pushcl FIRE (pc 13)
		byte(OpRegrxn),
		byte(OpWait),
		// FIRE (pc 13):
		byte(OpPop), byte(OpPop), byte(OpPop), byte(OpPop),
		byte(OpHalt),
	}
	rep, err := Verify(code)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(rep.ReactionEntries) != 1 || rep.ReactionEntries[0] != 13 {
		t.Errorf("ReactionEntries = %v, want [13]", rep.ReactionEntries)
	}
}

func TestVerifyDynamicJumpsDisablesDepthErrors(t *testing.T) {
	// A bare jumps (saved-PC reaction epilogue) makes every address
	// reachable with any stack; nothing can be a guaranteed error.
	code := []byte{
		byte(OpPusht), 1, byte(OpPushc), 1,
		byte(OpPushcl), 0, 12, byte(OpRegrxn),
		byte(OpWait),
		byte(OpPushc), 0, byte(OpHalt),
		// RXN (pc 12):
		byte(OpPop), byte(OpPop), byte(OpJumps),
	}
	rep, err := Verify(code)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !rep.DynamicJumps {
		t.Error("DynamicJumps not reported")
	}
}

func TestVerifyStaticJumps(t *testing.T) {
	// pushc 3; jumps -> pc 3 (the halt). Statically visible and legal.
	if _, err := Verify([]byte{byte(OpPushc), 3, byte(OpJumps), byte(OpHalt)}); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// pushc 2; jumps -> inside nothing: 2 is the jumps itself... use an
	// address inside an instruction instead.
	code := []byte{byte(OpPushc), 1, byte(OpJumps), byte(OpHalt)}
	if _, err := Verify(code); err == nil {
		t.Error("jumps into an operand byte must fail")
	}
}

func TestVerifyLoopFixpointTerminates(t *testing.T) {
	// A data-dependent loop that leaks stack per iteration (the
	// FIRETRACKER shape) must converge and report possible overflow at
	// most, not an error.
	code := []byte{
		// TOP: pushc 0; getnbr; rjumpc TOP(-4)... getnbr pops 1 pushes 1.
		byte(OpPushc), 0, // pc 0
		byte(OpGetnbr),    // pc 2
		byte(OpRjumpc), 0, // pc 3: offset patched below
		byte(OpHalt), // pc 5
	}
	code[4] = byte(0xfd) // -3: back to pc 0; stack grows by 1 per lap
	rep, err := Verify(code)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !rep.MayOverflow {
		t.Error("leaking loop should report MayOverflow")
	}
}

// TestSuccMatchesRetiredWalkers pins Decoded.Succ, the one statement of
// the CFG successor rule, to the successor sets the three hand-written
// walkers it replaced produced (Verify's fixpoint, Analyze's kind
// fixpoint, and — between yield points — analyzeEnergy's succ; they
// agreed with each other on every program here). testdata/succ.golden
// was generated at commit bda3bbd from verbatim copies of those rules,
// over every program.Library() agent, every examples/agents/*.agilla,
// and every decodable program the vm package's tests, fuzz seeds
// included, hand to Verify, Analyze or Compile. Each line is the
// program in hex, then pc>successor-pcs for each instruction in order.
func TestSuccMatchesRetiredWalkers(t *testing.T) {
	golden, err := os.ReadFile("testdata/succ.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		fields := strings.Fields(line)
		prog, err := hex.DecodeString(fields[0])
		if err != nil {
			t.Fatalf("bad golden line %q: %v", line, err)
		}
		d, err := Decode(prog)
		if err != nil {
			t.Errorf("%s: %v", fields[0], err)
			continue
		}
		var got []string
		for i, in := range d.Ins {
			var pcs []string
			for _, j := range d.Succ(i) {
				pcs = append(pcs, fmt.Sprint(d.Ins[j].PC))
			}
			got = append(got, fmt.Sprintf("%d>%s", in.PC, strings.Join(pcs, ",")))
		}
		if g, w := strings.Join(got, " "), strings.Join(fields[1:], " "); g != w {
			t.Errorf("%s:\n got %s\nwant %s", fields[0], g, w)
		}
	}
}
