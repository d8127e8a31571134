package vm

import (
	"errors"
	"fmt"
)

// Static program verification, shared by every authoring surface: the
// assembler (internal/asm), the typed builder (package program), and raw
// bytecode loading (program.FromBytes). It is driven entirely by the ISA
// metadata table in isa.go.
//
// Verify performs four classes of checks:
//
//  1. Decode: every byte decodes as a known instruction with its full
//     operand bytes present.
//  2. Operand ranges: heap indices within [0, HeapSlots); relative jump
//     targets inside the code and on an instruction boundary; statically
//     visible absolute addresses (a pushc/pushcl immediately feeding
//     jumps or regrxn) likewise.
//  3. Control flow: execution cannot run off the end of the code.
//  4. Worst-case stack analysis: an interval [lo, hi] of possible stack
//     depths is propagated over the control-flow graph to a fixpoint.
//     An instruction whose minimum pops exceed the maximum possible
//     depth is a guaranteed underflow; a push that exceeds StackDepth on
//     every path is a guaranteed overflow. Both are errors. Depth that
//     merely may exceed the limit (data-dependent tuple traffic) is
//     reported via MayOverflow, not an error — the paper's own agents
//     rely on data-dependent stack effects.
//
// The analysis is deliberately tolerant of Agilla's dynamic features:
// wait suspends until a reaction fires, so code after wait is reachable
// only through a registered reaction entry point (detected from the
// pushcl-feeds-regrxn idiom) and such entries start with an unknown
// stack; a jumps whose target is not statically visible makes every
// instruction conservatively reachable.

// VerifyError is one verification finding, positioned by program
// counter. Callers that know source positions (the assembler, the
// builder) wrap it with line or label information.
type VerifyError struct {
	// PC is the byte address of the offending instruction, Index its
	// position in program order (how the assembler and the builder, which
	// emit one instruction per statement or step, find the source).
	PC    int
	Index int
	// Op is the instruction at PC (0 i.e. halt when decoding failed
	// before an opcode was established).
	Op Op
	// Msg describes the defect.
	Msg string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("pc=%d (%s): %s", e.PC, e.Op, e.Msg)
}

// VerifyReport is the result of verifying one program.
type VerifyReport struct {
	// Instructions is the number of instructions decoded.
	Instructions int
	// MaxStackDepth is the worst-case operand stack depth the analysis
	// can bound, capped at StackDepth.
	MaxStackDepth int
	// MayOverflow reports that some path may exceed StackDepth
	// depending on runtime data (not an error; the agent would die at
	// runtime with ErrStackOverflow).
	MayOverflow bool
	// DynamicJumps reports that the program contains a jumps whose
	// target is not statically visible, which forces the stack analysis
	// to treat every instruction as reachable with any depth.
	DynamicJumps bool
	// ReactionEntries lists code addresses registered as reaction entry
	// points via the pushcl-feeds-regrxn idiom.
	ReactionEntries []int
	// Errors holds every finding. The error returned by Verify joins
	// them; keeping the slice lets callers re-position each finding.
	Errors []*VerifyError
}

// ValidNameByte reports whether b may appear in a pushn name: printable
// ASCII excluding whitespace, quotes, and the assembler's comment
// characters (';', '/'), so every verified name survives a disassemble →
// reassemble round trip unchanged.
func ValidNameByte(b byte) bool {
	return b > 0x20 && b < 0x7f && b != '"' && b != ';' && b != '/'
}

// Instr is one decoded instruction.
type Instr struct {
	PC   int
	Op   Op
	Info Info
	// Args are the operand bytes (Info.Operands of them), aliasing the code.
	Args []byte

	succ  [2]int // Decoded.Succ
	nsucc int
}

// Next is the address of the instruction that follows in the code.
func (in *Instr) Next() int { return in.PC + in.Info.Size() }

// Imm returns the constant a pushc or pushcl pushes.
func (in *Instr) Imm() (v int, ok bool) {
	switch in.Op {
	case OpPushc:
		return int(in.Args[0]), true
	case OpPushcl:
		return int(int16(uint16(in.Args[0])<<8 | uint16(in.Args[1]))), true
	}
	return 0, false
}

// rel is the target address of a relative jump.
func (in *Instr) rel() int { return in.PC + int(int8(in.Args[0])) }

// Decoded is a program decoded once: the instruction list, the map from
// byte address to instruction, the statically visible control-flow facts,
// and the successor edges they imply. Verify, Analyze, Compile and the
// disassembler all walk this value; nothing else decodes bytecode or
// derives successors (the interpreter's per-step fetch aside).
type Decoded struct {
	Code []byte
	Ins  []Instr

	index map[int]int // pc -> index in Ins
	ctlFacts
}

// ctlFacts are the statically visible control-flow facts. An idiom pair
// (a pushc/pushcl immediately feeding jumps or regrxn) is trusted only
// when the consumer cannot be entered except by falling through the
// push: a direct entry (a jump target on the consumer itself) would let
// it pop a value other than the pushed constant, so a targeted consumer
// is demoted to dynamic.
type ctlFacts struct {
	jumpTargets map[int]int // Ins index of a trusted jumps -> target pc
	rxnEntries  []int       // candidate reaction entry pcs, program order
	rxnAt       map[int]int // Ins index of a trusted regrxn -> entry pc
	dynamic     bool        // a jumps with no trusted static target
	dynamicPC   int
	bypassed    bool // a regrxn whose entry is not statically certain
	bypassPC    int
}

// Decode splits code into instructions. It fails, with a *VerifyError,
// at the first byte that is not a known opcode with its full operands:
// nothing after that point can be trusted to be an instruction boundary.
func Decode(code []byte) (*Decoded, error) {
	d := &Decoded{Code: code, index: make(map[int]int)}
	for pc := 0; pc < len(code); {
		op := Op(code[pc])
		info, ok := infoTable[op]
		if !ok {
			return nil, &VerifyError{PC: pc, Index: len(d.Ins), Op: op, Msg: fmt.Sprintf("unknown opcode 0x%02x", byte(op))}
		}
		if pc+info.Size() > len(code) {
			return nil, &VerifyError{PC: pc, Index: len(d.Ins), Op: op, Msg: fmt.Sprintf("truncated operands: %s needs %d byte(s), %d left", info.Name, info.Operands, len(code)-pc-1)}
		}
		d.index[pc] = len(d.Ins)
		d.Ins = append(d.Ins, Instr{PC: pc, Op: op, Info: info, Args: code[pc+1 : pc+info.Size()]})
		pc += info.Size()
	}
	d.findControlFacts()
	for i := range d.Ins {
		in := &d.Ins[i]
		edge := func(pc int) {
			if j, ok := d.index[pc]; ok {
				in.succ[in.nsucc] = j
				in.nsucc++
			}
		}
		if in.Info.Kind == OperandRel {
			edge(in.rel())
		} else if target, ok := d.jumpTargets[i]; ok {
			edge(target)
		}
		if in.Info.flow.falls() {
			edge(in.Next())
		}
	}
	return d, nil
}

// Succ returns the instructions (as Ins indices) control can reach
// directly from Ins[i]: the target of a relative jump or of a jumps whose
// address is a trusted constant, then the next instruction unless the
// row's flow class says control never falls through. A target outside
// the code or off an instruction boundary (which Verify rejects) and a
// fallthrough off the end contribute no edge. Reaction entries are not
// successors of anything; their roots are rxnAt.
func (d *Decoded) Succ(i int) []int { return d.Ins[i].succ[:d.Ins[i].nsucc] }

// addr reports whether v is the address of an instruction.
func (d *Decoded) addr(v int) bool { _, ok := d.index[v]; return ok }

func (d *Decoded) findControlFacts() {
	f := &d.ctlFacts
	*f = ctlFacts{jumpTargets: map[int]int{}, rxnAt: map[int]int{}, dynamicPC: -1, bypassPC: -1}
	// feeds reports the constant Ins[i] pushes straight into a following
	// jumps or regrxn, when it is an instruction address.
	feeds := func(i int) (v int, consumer *Instr) {
		if v, ok := d.Ins[i].Imm(); ok && i+1 < len(d.Ins) && d.addr(v) {
			if c := &d.Ins[i+1]; c.Op == OpJumps || c.Op == OpRegrxn {
				return v, c
			}
		}
		return 0, nil
	}
	// Directly enterable addresses: the program start, every relative
	// jump target, and every candidate computed target.
	direct := map[int]bool{0: true}
	for i := range d.Ins {
		if in := &d.Ins[i]; in.Info.Kind == OperandRel {
			direct[in.rel()] = true
		}
		if v, c := feeds(i); c != nil {
			direct[v] = true
		}
	}
	for i := range d.Ins {
		v, c := feeds(i)
		switch {
		case c == nil:
		case c.Op == OpJumps:
			if !direct[c.PC] {
				f.jumpTargets[i+1] = v
			}
		default:
			f.rxnEntries = append(f.rxnEntries, v)
			if !direct[c.PC] {
				f.rxnAt[i+1] = v
			} else if !f.bypassed {
				f.bypassed, f.bypassPC = true, c.PC
			}
		}
	}
	for i := range d.Ins {
		in := &d.Ins[i]
		switch in.Op {
		case OpJumps:
			if _, ok := f.jumpTargets[i]; !ok && !f.dynamic {
				f.dynamic, f.dynamicPC = true, in.PC
			}
		case OpRegrxn:
			if _, ok := f.rxnAt[i]; !ok && !f.bypassed {
				// A regrxn with no feeding push: the entry address comes
				// off the stack and is not statically certain.
				f.bypassed, f.bypassPC = true, in.PC
			}
		}
	}
}

// Verify statically checks a program and reports its worst-case resource
// use. The returned error is nil iff the program passed; otherwise it
// joins one error per finding (each a *VerifyError carrying the PC).
func Verify(code []byte) (VerifyReport, error) {
	_, rep := verify(code)
	return rep, rep.err()
}

// verify is Verify handing back the decoded program (nil if the bytes do
// not decode) so Analyze and Compile walk the same value.
func verify(code []byte) (*Decoded, VerifyReport) {
	var rep VerifyReport
	if len(code) == 0 {
		rep.Errors = append(rep.Errors, &VerifyError{Msg: "empty program"})
		return nil, rep
	}
	d, err := Decode(code)
	if err != nil {
		rep.Errors = append(rep.Errors, err.(*VerifyError)) // Decode's only error type
		return nil, rep
	}
	ins := d.Ins
	rep.Instructions = len(ins)
	fail := func(i int, format string, args ...any) {
		rep.Errors = append(rep.Errors, &VerifyError{PC: ins[i].PC, Index: i, Op: ins[i].Op, Msg: fmt.Sprintf(format, args...)})
	}

	// Operand ranges and statically visible addresses.
	for i := range ins {
		in := &ins[i]
		switch in.Info.Kind {
		case OperandHeap:
			if int(in.Args[0]) >= HeapSlots {
				fail(i, "heap index %d out of [0,%d)", in.Args[0], HeapSlots)
			}
		case OperandName3:
			// Names must be non-empty, zero-padded, and use only
			// characters every authoring surface round-trips (so a
			// disassembly always reassembles to identical bytes).
			n := 3
			for n > 0 && in.Args[n-1] == 0 {
				n--
			}
			if n == 0 {
				fail(i, "empty name")
			}
			for j := 0; j < n; j++ {
				if b := in.Args[j]; !ValidNameByte(b) {
					fail(i, "name byte %d (0x%02x) is not a valid name character", j, b)
					break
				}
			}
		case OperandRel:
			if target := in.rel(); target < 0 || target >= len(code) {
				fail(i, "jump target %d outside code (%d bytes)", target, len(code))
			} else if !d.addr(target) {
				fail(i, "jump target %d is inside an instruction", target)
			}
		}
		// The pushc/pushcl-feeds-consumer idiom makes some absolute code
		// addresses statically visible; check them too.
		if v, ok := in.Imm(); ok && i+1 < len(ins) && !d.addr(v) {
			switch ins[i+1].Op {
			case OpRegrxn:
				fail(i, "reaction entry %d is not an instruction address", v)
			case OpJumps:
				fail(i, "jumps target %d is not an instruction address", v)
			}
		}
	}

	// Control flow and stack-depth intervals, propagated over Succ to a
	// fixpoint.
	rep.ReactionEntries = d.rxnEntries
	type interval struct {
		lo, hi int
		seen   bool
	}
	depth := make([]interval, len(ins))
	var work []int
	enter := func(idx, lo, hi int) {
		cur := &depth[idx]
		if !cur.seen {
			*cur = interval{lo: lo, hi: hi, seen: true}
			work = append(work, idx)
			return
		}
		widened := false
		if lo < cur.lo {
			cur.lo, widened = lo, true
		}
		if hi > cur.hi {
			cur.hi, widened = hi, true
		}
		if widened {
			work = append(work, idx)
		}
	}

	enter(0, 0, 0)
	for _, pc := range rep.ReactionEntries {
		// A firing pushes the interrupted PC, the matched tuple's
		// fields, and their count on top of whatever the agent had.
		enter(d.index[pc], 0, StackDepth)
	}
	rep.DynamicJumps = d.dynamic
	if d.dynamic || d.bypassed {
		// Dynamic jump, or a reaction entry that is not statically
		// certain: every instruction is conservatively reachable with
		// any stack.
		for i := range ins {
			enter(i, 0, StackDepth)
		}
	}

	flagged := make(map[int]bool) // ins index -> already reported
	flag := func(idx int, format string, args ...any) {
		if !flagged[idx] {
			flagged[idx] = true
			fail(idx, format, args...)
		}
	}
	for len(work) > 0 {
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		in := &ins[idx]

		lo, hi, under := stackInterval(in.Info, depth[idx].lo, depth[idx].hi)
		if under {
			flag(idx, "stack underflow: %s pops at least %d value(s) but at most %d can be on the stack here", in.Info.Name, in.Info.StackInMin(), depth[idx].hi)
			continue // the agent dies here on every path
		}
		if lo > StackDepth {
			flag(idx, "stack overflow: %s leaves at least %d values on a %d-slot stack", in.Info.Name, lo, StackDepth)
			continue
		}
		if hi > StackDepth {
			rep.MayOverflow = true
			hi = StackDepth
		}
		rep.MaxStackDepth = max(rep.MaxStackDepth, hi)

		for _, next := range d.Succ(idx) {
			enter(next, lo, hi)
		}
		if in.Info.flow.falls() && in.Next() == len(code) {
			flag(idx, "execution runs off the end of the code after %s; add a halt or jump", in.Info.Name)
		}
	}
	return d, rep
}

func (r *VerifyReport) err() error {
	if len(r.Errors) == 0 {
		return nil
	}
	errs := make([]error, len(r.Errors))
	for i, e := range r.Errors {
		errs[i] = e
	}
	return errors.Join(errs...)
}
