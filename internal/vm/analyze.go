package vm

import (
	"errors"
	"fmt"
	"sort"
)

// Static dataflow analysis, layered on Verify. Where Verify bounds stack
// depth as an interval, Analyze runs an abstract interpreter over the
// same control-flow graph tracking the *kind* of every operand stack
// slot and heap variable (number, string, location, type wildcard,
// sensor reading, agent ID), so it can prove three classes of defect
// before an agent is admitted:
//
//   - type-mismatched operands: an instruction whose operand can never
//     hold an acceptable kind (smove of a number, putled of a string);
//   - reads of never-written heap slots (getvar of a variable no
//     reachable setvar ever stores to — the zero heap Value is invalid
//     and poisons whatever consumes it);
//   - dead code and unreachable reactions.
//
// On top of the CFG it computes a static worst-case energy bound per
// wakeful burst: the maximum energy (EnergyCosts, mirroring the
// deployment's core.EnergyModel) an agent can draw between two yield
// points. Yield points are the instructions that suspend the agent —
// sleep, wait, the four migrations, the three remote operations, and a
// blocking in/rd that misses — so an infinite sense-sleep loop like
// Figure 13's detector still gets a finite per-burst figure, while a
// busy loop that never yields is reported Unbounded with the offending
// back edge. Launch uses the bound for admission (WithAdmissionBudget).
//
// The abstract state is exact as long as the analysis can track every
// slot: pushes record kinds (and constants, so tuple field counts are
// usually known), and the state degrades to Verify's depth interval at
// joins of unequal depth or data-dependent tuple traffic. All findings
// come from exact states or whole-program facts, so every reported
// defect is guaranteed on some run, never a may-happen guess.
//
// Nothing here knows an opcode's stack effect or successors on its own:
// the transfer function and the checks walk the Decoded program and read
// each instruction's ISA row (isa.go: pops, pushes, flow).

// Severity classifies a finding.
type Severity uint8

// Severities.
const (
	// SevWarning findings describe suspicious but survivable programs:
	// dead code, unreachable reactions, an unbounded energy draw.
	SevWarning Severity = iota
	// SevError findings are guaranteed runtime deaths or reads of
	// never-written state; Analyze returns an error when any exist.
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Finding is one analysis result, positioned by program counter like
// VerifyError; callers with source maps (the assembler, the builder)
// re-position it.
type Finding struct {
	PC       int
	Op       Op
	Severity Severity
	Msg      string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: pc=%d (%s): %s", f.Severity, f.PC, f.Op, f.Msg)
}

// AnalysisReport is the result of analyzing one program. It embeds the
// verifier's report; the analysis fields are meaningful only when the
// embedded report carries no errors.
type AnalysisReport struct {
	VerifyReport

	// Findings holds every dataflow finding, sorted by PC.
	Findings []Finding

	// EnergyBoundNJ is the worst-case energy in nanojoules any single
	// wakeful burst can draw, valid when EnergyUnbounded is false.
	EnergyBoundNJ uint64
	// EnergyUnbounded reports that no finite per-burst bound exists:
	// some cycle never passes a yielding instruction, a dynamic jump
	// defeats the CFG, or a reaction entry is not statically visible.
	// UnboundedPC locates the offending back edge or instruction.
	EnergyUnbounded bool
	UnboundedPC     int

	// BurstEntries lists the addresses where a wakeful burst can begin:
	// program start, reaction entries, the continuations of yielding
	// instructions, and blocking in/rd retry points. Sorted.
	BurstEntries []int

	// HeapWritten and HeapRead are bitmasks of heap slots some reachable
	// setvar writes / getvar reads.
	HeapWritten, HeapRead uint16

	// UnreachablePCs lists the addresses of unreachable instructions.
	UnreachablePCs []int
}

// EnergyBoundJ is the per-burst bound in joules.
func (r *AnalysisReport) EnergyBoundJ() float64 { return float64(r.EnergyBoundNJ) / 1e9 }

// HasErrors reports whether the program failed verification or any
// SevError finding exists.
func (r *AnalysisReport) HasErrors() bool {
	if len(r.VerifyReport.Errors) > 0 {
		return true
	}
	for _, f := range r.Findings {
		if f.Severity == SevError {
			return true
		}
	}
	return false
}

// Err joins the verifier's errors and the SevError findings; nil if the
// program is admissible.
func (r *AnalysisReport) Err() error {
	errs := make([]error, 0, len(r.VerifyReport.Errors))
	for _, e := range r.VerifyReport.Errors {
		errs = append(errs, e)
	}
	for _, f := range r.Findings {
		if f.Severity == SevError {
			errs = append(errs, errors.New(f.String()))
		}
	}
	return errors.Join(errs...)
}

// aslot is one abstract operand stack slot: the kinds it may hold and,
// when a push recorded one, the exact constant (field counts, mostly).
type aslot struct {
	mask     kmask
	hasConst bool
	c        int16
}

func slotOf(m kmask) aslot { return aslot{mask: m} }

// astate is the abstract machine state at one instruction's entry. When
// exact, stack holds one aslot per live entry (lo == hi == len(stack));
// otherwise only the depth interval [lo, hi] is known, exactly Verify's
// domain.
type astate struct {
	seen  bool
	exact bool
	stack []aslot
	lo    int
	hi    int
}

func exactState(stack []aslot) astate {
	return astate{seen: true, exact: true, stack: stack, lo: len(stack), hi: len(stack)}
}

func rangeState(lo, hi int) astate {
	return astate{seen: true, lo: lo, hi: hi}
}

// join widens d to cover s, reporting whether d changed. The lattice is
// monotone: masks only grow, constants only disappear, exactness only
// degrades, intervals only widen — so the fixpoint terminates.
func (d *astate) join(s astate) bool {
	if !d.seen {
		*d = s
		d.stack = append([]aslot(nil), s.stack...)
		return true
	}
	if d.exact && s.exact && len(d.stack) == len(s.stack) {
		changed := false
		for i := range d.stack {
			if m := d.stack[i].mask | s.stack[i].mask; m != d.stack[i].mask {
				d.stack[i].mask = m
				changed = true
			}
			if d.stack[i].hasConst && (!s.stack[i].hasConst || s.stack[i].c != d.stack[i].c) {
				d.stack[i].hasConst = false
				changed = true
			}
		}
		return changed
	}
	lo, hi := min(d.lo, s.lo), max(d.hi, s.hi)
	changed := d.exact || lo < d.lo || hi > d.hi
	d.exact, d.stack, d.lo, d.hi = false, nil, lo, hi
	return changed
}

// Analyze runs the dataflow analysis and energy bounding on a program,
// using costs (typically DefaultEnergyCosts, or a deployment model's
// VMCosts) for the energy figures. The returned error is non-nil iff
// the program failed verification or a SevError finding exists;
// warnings (dead code, unbounded energy) never make the error.
func Analyze(code []byte, costs EnergyCosts) (AnalysisReport, error) {
	var rep AnalysisReport
	rep.UnboundedPC = -1
	d, vrep := verify(code)
	rep.VerifyReport = vrep
	if verr := vrep.err(); verr != nil {
		return rep, fmt.Errorf("analyze: %w", verr)
	}
	ins := d.Ins
	conservative := d.dynamic || d.bypassed

	// Kind fixpoint. heapMask is flow-insensitive: the union of every
	// kind a reachable setvar stores to the slot (reads see that union
	// plus kInvalid, since the write may not have happened yet).
	states := make([]astate, len(ins))
	var heapMask [HeapSlots]kmask
	var work []int
	enter := func(idx int, s astate) {
		if states[idx].join(s) {
			work = append(work, idx)
		}
	}
	// getvarsOf re-enqueues readers of a slot when its mask widens.
	getvarsOf := make([][]int, HeapSlots)
	for i := range ins {
		if in := &ins[i]; in.Op == OpGetvar {
			getvarsOf[in.Args[0]] = append(getvarsOf[in.Args[0]], i)
		}
	}
	writeHeap := func(slot byte, m kmask) {
		rep.HeapWritten |= 1 << slot
		if heapMask[slot]|m != heapMask[slot] {
			heapMask[slot] |= m
			for _, gi := range getvarsOf[slot] {
				if states[gi].seen {
					work = append(work, gi)
				}
			}
		}
	}

	if conservative {
		for i := range ins {
			enter(i, rangeState(0, StackDepth))
		}
	} else {
		enter(0, exactState(nil))
	}

	// step computes the out-state of one instruction from its in-state,
	// or reports a guaranteed death (dead == true: no successor state).
	// It only decides the out-state; reportChecks turns the same row
	// facts into findings once the states are final.
	step := func(idx int) (out astate, dead bool) {
		in, s, info := &ins[idx], states[idx], ins[idx].Info
		// interval is Verify's domain: all that is left once a slot's
		// kind or a field count is unknown.
		interval := func(lo, hi int) (astate, bool) {
			lo, hi, under := stackInterval(info, lo, hi)
			if under || lo > StackDepth {
				return astate{}, true
			}
			if in.Op == OpSetvar {
				writeHeap(in.Args[0], kAny)
			}
			return rangeState(lo, min(hi, StackDepth)), false
		}
		depth := len(s.stack)
		if !s.exact {
			return interval(s.lo, s.hi)
		}
		if depth < info.StackInMin() {
			return astate{}, true
		}
		// The fixed operands come off first (popped[0] is the deepest),
		// then a VarIn instruction's count and, when the count is a
		// known constant, that many fields.
		popped := s.stack[depth-info.In:]
		st := append([]aslot(nil), s.stack[:depth-info.In]...)
		if info.VarIn {
			cnt := st[len(st)-1]
			st = st[:len(st)-1]
			if !cnt.hasConst {
				return interval(depth, depth)
			}
			n := int(cnt.c)
			if n < 0 || n > len(st) {
				return astate{}, true // PopFields dies on every path
			}
			st = st[:len(st)-n]
			if info.VarOut {
				// A hit (or the reply) pushes the matched fields and
				// their count. For a blocking in/rd the hit is the only
				// successor state: a miss retries the instruction.
				lo := len(st)
				if in.Op.blocksOnMiss() {
					lo++
				}
				return rangeState(lo, StackDepth), false
			}
		}
		// The results: the row's kinds, except where they depend on data.
		switch in.Op {
		case OpDup:
			st = append(st, popped[0], popped[0])
		case OpSwap:
			st = append(st, popped[1], popped[0])
		case OpSetvar:
			writeHeap(in.Args[0], popped[0].mask)
		case OpGetvar:
			// A slot never written anywhere gets the read-before-write
			// finding in reportChecks; push kAny here so one defect does
			// not cascade into spurious mismatches downstream.
			m := kAny
			if rep.HeapWritten&(1<<in.Args[0]) != 0 {
				m = heapMask[in.Args[0]] | kInvalid
			}
			st = append(st, slotOf(m))
		case OpPushc, OpPushcl:
			c, _ := in.Imm()
			st = append(st, aslot{mask: kNum, hasConst: true, c: int16(c)})
		default:
			for _, k := range info.pushes {
				st = append(st, slotOf(k))
			}
		}
		if len(st) > StackDepth {
			return astate{}, true
		}
		return exactState(st), false
	}

	for len(work) > 0 {
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		if in := &ins[idx]; in.Op == OpGetvar {
			rep.HeapRead |= 1 << in.Args[0]
		}
		out, dead := step(idx)
		if dead {
			continue
		}
		if e, trusted := d.rxnAt[idx]; trusted {
			// A firing enters with the interrupted context's stack
			// plus the matched tuple: depth unknown.
			enter(d.index[e], rangeState(0, StackDepth))
		}
		for _, next := range d.Succ(idx) {
			enter(next, out)
		}
	}

	addFinding := func(i int, sev Severity, format string, args ...any) {
		rep.Findings = append(rep.Findings, Finding{PC: ins[i].PC, Op: ins[i].Op, Severity: sev, Msg: fmt.Sprintf(format, args...)})
	}
	if !conservative {
		reportChecks(&rep, ins, states, addFinding)

		// Dead code, coalesced into runs; unreachable reactions.
		for i := 0; i < len(ins); i++ {
			if states[i].seen {
				continue
			}
			j := i
			for j+1 < len(ins) && !states[j+1].seen {
				j++
			}
			for k := i; k <= j; k++ {
				rep.UnreachablePCs = append(rep.UnreachablePCs, ins[k].PC)
			}
			addFinding(i, SevWarning, "unreachable code: pc %d..%d (%d instruction(s)) cannot execute on any path", ins[i].PC, ins[j].PC, j-i+1)
			i = j
		}
		for _, e := range rep.ReactionEntries {
			if ei := d.index[e]; !states[ei].seen {
				addFinding(ei, SevWarning, "unreachable reaction: entry pc %d is never registered (its regrxn cannot execute)", e)
			}
		}
	}

	analyzeEnergy(&rep, d, states, conservative, costs, addFinding)

	sort.Slice(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i], rep.Findings[j]
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		return a.Severity > b.Severity
	})
	return rep, rep.Err()
}

// reportChecks reads each reachable instruction's row against its exact
// fixpoint state and records the findings. Every check mirrors the
// interpreter's runtime behavior (PopInt's coercions, PopLoc, PopFields,
// heap zero values), so a SevError here is a death the interpreter is
// guaranteed to hit.
func reportChecks(rep *AnalysisReport, ins []Instr, states []astate, addFinding func(int, Severity, string, ...any)) {
	for idx := range ins {
		in, s, info := &ins[idx], states[idx], ins[idx].Info
		if !s.seen {
			continue
		}
		// Whole-program heap fact: reads of never-written slots.
		if in.Op == OpGetvar && rep.HeapWritten&(1<<in.Args[0]) == 0 {
			addFinding(idx, SevError, "heap slot %d is read here but no reachable setvar ever writes it (the zero value is invalid)", in.Args[0])
		}
		if !s.exact {
			continue
		}
		depth := len(s.stack)
		if depth < info.StackInMin() {
			addFinding(idx, SevError, "guaranteed stack underflow: %s needs %d value(s), every path reaches here with %d", info.Name, info.StackInMin(), depth)
			continue
		}
		want := func(fromTop int, o operand) {
			if v := s.stack[depth-1-fromTop]; v.mask&o.mask == 0 {
				addFinding(idx, SevError, "type mismatch: %s needs a %s %s but every path pushes a %s here", info.Name, o.mask, o.what, v.mask)
			}
		}
		for i, o := range info.pops {
			want(i, o)
		}
		if info.VarIn {
			want(info.In, countArg)
			if cnt := s.stack[depth-1-info.In]; cnt.hasConst {
				n, beneath := int(cnt.c), depth-1-info.In
				if n < 0 {
					addFinding(idx, SevError, "negative field count %d", n)
				} else if n > beneath {
					addFinding(idx, SevError, "guaranteed stack underflow: field count %d with %d value(s) beneath it", n, beneath)
				}
			}
		} else if depth-info.In+info.Out > StackDepth {
			if in.Op == OpDup {
				addFinding(idx, SevError, "guaranteed stack overflow: dup on a full stack (%d/%d) on every path", depth, StackDepth)
			} else {
				addFinding(idx, SevError, "guaranteed stack overflow: %s pushes onto a full stack (%d/%d) on every path", info.Name, depth, StackDepth)
			}
		}
	}
}

// analyzeEnergy computes the worst-case per-burst energy bound over the
// burst graph: the CFG with yielding instructions' outgoing edges cut
// (their continuations become burst entries). A cycle that survives the
// cuts is a busy loop that never yields — unbounded.
func analyzeEnergy(rep *AnalysisReport, d *Decoded, states []astate, conservative bool, costs EnergyCosts, addFinding func(int, Severity, string, ...any)) {
	ins := d.Ins
	if conservative {
		rep.EnergyUnbounded = true
		rep.UnboundedPC = d.dynamicPC
		why := "a jumps target is not statically visible"
		if rep.UnboundedPC < 0 {
			rep.UnboundedPC = d.bypassPC
			why = "a reaction entry is not statically certain"
		}
		addFinding(d.index[rep.UnboundedPC], SevWarning, "energy bound unavailable: %s, so the control-flow graph is not static", why)
		return
	}

	// Successor edges within a burst.
	succ := func(idx int) []int {
		if ins[idx].Info.flow.yields() {
			return nil
		}
		return d.Succ(idx)
	}

	// Burst entries: program start, reaction entries, yield
	// continuations, and blocking in/rd retry points — reachable only.
	entrySet := map[int]bool{}
	addEntry := func(idx int) {
		if states[idx].seen {
			entrySet[idx] = true
		}
	}
	addEntry(0)
	for idx, e := range d.rxnAt {
		if states[idx].seen {
			addEntry(d.index[e])
		}
	}
	for idx := range ins {
		in := &ins[idx]
		switch {
		case !states[idx].seen:
		case in.Info.flow == flowYield:
			if ni, ok := d.index[in.Next()]; ok {
				addEntry(ni)
			}
		case in.Op.blocksOnMiss():
			addEntry(idx)
		}
	}

	// Cycle check + longest path by iterative DFS with coloring.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	entries := make([]int, 0, len(entrySet))
	for e := range entrySet {
		entries = append(entries, e)
	}
	sort.Ints(entries)

	color := make([]uint8, len(ins))
	cost := make([]uint64, len(ins))
	type frame struct {
		idx  int
		next int
	}
	for _, e := range entries {
		if color[e] == black {
			continue
		}
		stack := []frame{{idx: e}}
		color[e] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			ss := succ(f.idx)
			if f.next < len(ss) {
				n := ss[f.next]
				f.next++
				switch color[n] {
				case grey:
					rep.EnergyUnbounded = true
					rep.UnboundedPC = ins[f.idx].PC
					addFinding(f.idx, SevWarning,
						"unbounded energy: the loop back to pc %d never yields (no sleep, wait, migration, remote op, or blocking read on the cycle)", ins[n].PC)
					return
				case white:
					color[n] = grey
					stack = append(stack, frame{idx: n})
				}
				continue
			}
			// Post-order: all successors final.
			var best uint64
			for _, n := range ss {
				if cost[n] > best {
					best = cost[n]
				}
			}
			cost[f.idx] = costs.OpCostNJ(ins[f.idx].Op, len(d.Code)) + best
			color[f.idx] = black
			stack = stack[:len(stack)-1]
		}
	}
	for _, e := range entries {
		rep.BurstEntries = append(rep.BurstEntries, ins[e].PC)
		if cost[e] > rep.EnergyBoundNJ {
			rep.EnergyBoundNJ = cost[e]
		}
	}
}
