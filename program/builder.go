package program

import (
	"errors"
	"fmt"
	"slices"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
)

// SensorType identifies a sensor on the mote's board (pushrt, Sense).
type SensorType = tuplespace.SensorType

// TypeCode names a matchable field type for template wildcards (PushT).
type TypeCode = tuplespace.TypeCode

// Field type codes for PushT and template construction.
const (
	TypeAny      = tuplespace.TypeAny
	TypeValue    = tuplespace.TypeValue
	TypeString   = tuplespace.TypeString
	TypeLocation = tuplespace.TypeLocation
	TypeReading  = tuplespace.TypeReading
	TypeAgentID  = tuplespace.TypeAgentID
)

// Builder composes an agent program instruction by instruction. Every
// method appends to the program and returns the builder, so programs
// read as chains:
//
//	p, err := program.New("greeter").
//		PushC(7).Putled().
//		PushN("hi").Loc().PushC(2).Out().
//		Halt().
//		Build()
//
// Method names follow the ISA mnemonics of Figure 7 (PushC ↔ pushc,
// JumpC ↔ rjumpc, ...). Tuple space methods accept optional typed fields:
// Out(Str("hi"), LocV(loc)) emits the pushes, the field count, and the
// operation, while Out() emits the bare instruction for operands already
// on the stack. On top sit combinators (If, Loop, ForEachNeighbor,
// React) that expand to the same label-and-jump patterns the paper's
// listings use.
//
// Builder is the typed front-end of the one assembler in internal/asm:
// every method appends a statement to the same list the text parser
// produces, and Build links it. Errors (bad immediates, duplicate
// labels, unresolved jump targets, verifier findings) therefore read as
// they do for assembly source, each positioned by build step and nearest
// label instead of by line.
type Builder struct {
	name string
	list asm.List
	errs []error // misuse of the Builder API itself, found before linking
	auto int
}

// New starts an empty program. The optional name is carried into the
// built Program for diagnostics.
func New(name ...string) *Builder {
	b := &Builder{}
	if len(name) > 0 {
		b.name = name[0]
	}
	return b
}

// stepPos renders the position of statement i (or of the next one to be
// appended when i == len(stmts)) for error messages.
func stepPos(stmts []asm.Stmt, i int) string {
	at := fmt.Sprintf("step %d", i+1)
	if i < len(stmts) {
		at += fmt.Sprintf(" (%s)", stmts[i].Op)
	}
	for j := min(i, len(stmts)-1); j >= 0; j-- {
		if n := len(stmts[j].Labels); n > 0 {
			return fmt.Sprintf("%s after label %q", at, stmts[j].Labels[n-1])
		}
	}
	return at
}

func (b *Builder) failf(format string, args ...any) *Builder {
	at := stepPos(b.list.Stmts, len(b.list.Stmts))
	b.errs = append(b.errs, fmt.Errorf("%s: %s", at, fmt.Sprintf(format, args...)))
	return b
}

func (b *Builder) emit(op vm.Op, args ...asm.Operand) *Builder {
	b.list.Add(op, 0, args...)
	return b
}

// Label binds a name to the next instruction appended; Jump, JumpC, and
// PushAddr reference it. A label after the last instruction marks the
// end of the program and cannot be a jump target.
func (b *Builder) Label(name string) *Builder {
	if name == "" {
		return b.failf("empty label name")
	}
	b.list.Label(name, 0)
	return b
}

func (b *Builder) autoLabel(kind string) string {
	b.auto++
	return fmt.Sprintf("$%s%d", kind, b.auto)
}

// --- register, arithmetic, and comparison instructions ---

// Halt ends the agent; the middleware reclaims it.
func (b *Builder) Halt() *Builder { return b.emit(vm.OpHalt) }

// Loc pushes the hosting node's location.
func (b *Builder) Loc() *Builder { return b.emit(vm.OpLoc) }

// Aid pushes the agent's own ID.
func (b *Builder) Aid() *Builder { return b.emit(vm.OpAid) }

// Rand pushes a uniform value in [0, 32767).
func (b *Builder) Rand() *Builder { return b.emit(vm.OpRand) }

// Dup duplicates the top of stack.
func (b *Builder) Dup() *Builder { return b.emit(vm.OpDup) }

// Pop discards the top of stack.
func (b *Builder) Pop() *Builder { return b.emit(vm.OpPop) }

// Swap exchanges the top two stack values.
func (b *Builder) Swap() *Builder { return b.emit(vm.OpSwap) }

// Add pops two values and pushes their sum.
func (b *Builder) Add() *Builder { return b.emit(vm.OpAdd) }

// Sub pops t1 then t2 and pushes t2-t1.
func (b *Builder) Sub() *Builder { return b.emit(vm.OpSub) }

// And pops two values and pushes their bitwise and.
func (b *Builder) And() *Builder { return b.emit(vm.OpAnd) }

// Or pops two values and pushes their bitwise or.
func (b *Builder) Or() *Builder { return b.emit(vm.OpOr) }

// Not pops a value and pushes its bitwise complement.
func (b *Builder) Not() *Builder { return b.emit(vm.OpNot) }

// Inc pops a value and pushes it incremented by one.
func (b *Builder) Inc() *Builder { return b.emit(vm.OpInc) }

// Ceq pops two values and sets the condition register if they are equal.
func (b *Builder) Ceq() *Builder { return b.emit(vm.OpCeq) }

// Cneq sets the condition if the popped values differ.
func (b *Builder) Cneq() *Builder { return b.emit(vm.OpCneq) }

// Clt pops t1 then t2 and sets the condition if t1 < t2 — i.e. the value
// beneath the top exceeds the top, the Figure 13 threshold idiom:
// Sense(...).PushCL(200).Clt() sets the condition when the reading > 200.
func (b *Builder) Clt() *Builder { return b.emit(vm.OpClt) }

// Cgt pops t1 then t2 and sets the condition if t1 > t2.
func (b *Builder) Cgt() *Builder { return b.emit(vm.OpCgt) }

// Eq pops two values and pushes 1 if equal, else 0.
func (b *Builder) Eq() *Builder { return b.emit(vm.OpEq) }

// Neq pops two values and pushes 1 if they differ, else 0.
func (b *Builder) Neq() *Builder { return b.emit(vm.OpNeq) }

// Lt pops t1 then t2 and pushes 1 if t1 < t2, else 0.
func (b *Builder) Lt() *Builder { return b.emit(vm.OpLt) }

// Gt pops t1 then t2 and pushes 1 if t1 > t2, else 0.
func (b *Builder) Gt() *Builder { return b.emit(vm.OpGt) }

// Wait suspends the agent until one of its reactions fires; execution
// resumes at the reaction's entry point, never after the Wait.
func (b *Builder) Wait() *Builder { return b.emit(vm.OpWait) }

// Sleep pops a tick count (1/8 s units) and suspends for that long.
func (b *Builder) Sleep() *Builder { return b.emit(vm.OpSleep) }

// Putled pops a value and drives the mote's LEDs with it.
func (b *Builder) Putled() *Builder { return b.emit(vm.OpPutled) }

// Sense samples a sensor. With an argument it pushes the sensor code
// first — Sense(SensorTemperature) ≡ PushC(code).Sense(); with none it
// pops the code from the stack (the raw instruction).
func (b *Builder) Sense(sensor ...SensorType) *Builder {
	if len(sensor) > 1 {
		return b.failf("Sense takes at most one sensor")
	}
	if len(sensor) == 1 {
		b.PushC(int(sensor[0]))
	}
	return b.emit(vm.OpSense)
}

// --- control flow ---

// Jump unconditionally jumps to a label (rjump; targets within ±128
// bytes — use PushAddr + Jumps for longer hops).
func (b *Builder) Jump(label string) *Builder { return b.emit(vm.OpRjump, asm.Sym(label)) }

// JumpC jumps to a label if the condition register is set (rjumpc).
func (b *Builder) JumpC(label string) *Builder { return b.emit(vm.OpRjumpc, asm.Sym(label)) }

// Jumps pops an absolute code address and jumps to it.
func (b *Builder) Jumps() *Builder { return b.emit(vm.OpJumps) }

// --- heap ---

// GetVar pushes heap variable i (0 ≤ i < 12).
func (b *Builder) GetVar(i int) *Builder { return b.emit(vm.OpGetvar, asm.Val(i)) }

// SetVar pops the top of stack into heap variable i (0 ≤ i < 12).
func (b *Builder) SetVar(i int) *Builder { return b.emit(vm.OpSetvar, asm.Val(i)) }

// --- migration ---

// Smove pops a location and strong-moves there (code + full state).
func (b *Builder) Smove() *Builder { return b.emit(vm.OpSmove) }

// Wmove pops a location and weak-moves there (code only; the agent
// restarts from instruction 0 at the destination).
func (b *Builder) Wmove() *Builder { return b.emit(vm.OpWmove) }

// Sclone pops a location and strong-clones there; both copies continue.
func (b *Builder) Sclone() *Builder { return b.emit(vm.OpSclone) }

// Wclone pops a location and weak-clones there; the copy restarts at 0.
func (b *Builder) Wclone() *Builder { return b.emit(vm.OpWclone) }

// MoveTo is Smove with an immediate destination.
func (b *Builder) MoveTo(dest Location) *Builder { return b.PushLocV(dest).Smove() }

// CloneTo is Sclone with an immediate destination.
func (b *Builder) CloneTo(dest Location) *Builder { return b.PushLocV(dest).Sclone() }

// --- neighbor list ---

// Getnbr pops an index and pushes the neighbor location at that index;
// the condition register reports whether the index was valid.
func (b *Builder) Getnbr() *Builder { return b.emit(vm.OpGetnbr) }

// Numnbrs pushes the acquaintance-list length.
func (b *Builder) Numnbrs() *Builder { return b.emit(vm.OpNumnbrs) }

// Randnbr pushes a uniformly chosen neighbor location; the condition
// register reports whether any neighbor exists.
func (b *Builder) Randnbr() *Builder { return b.emit(vm.OpRandnbr) }

// --- push instructions ---

// PushC pushes a small constant (pushc; one unsigned immediate byte).
func (b *Builder) PushC(v int) *Builder { return b.emit(vm.OpPushc, asm.Val(v)) }

// PushCL pushes a full 16-bit signed constant (pushcl).
func (b *Builder) PushCL(v int) *Builder { return b.emit(vm.OpPushcl, asm.Val(v)) }

// PushAddr pushes the absolute code address of a label (a pushcl whose
// immediate is resolved at Build). Feed it to Regrxn or Jumps.
func (b *Builder) PushAddr(label string) *Builder { return b.emit(vm.OpPushcl, asm.Sym(label)) }

// PushN pushes a short string name of 1-3 printable characters (pushn).
// Whitespace, quotes, ';', and '/' are rejected so every program's
// disassembly reassembles unchanged.
func (b *Builder) PushN(name string) *Builder { return b.emit(vm.OpPushn, asm.Sym(name)) }

// PushT pushes a type wildcard for template matching (pusht).
func (b *Builder) PushT(t TypeCode) *Builder { return b.emit(vm.OpPusht, asm.Val(t)) }

// PushRT pushes the reading-type wildcard for a sensor (pushrt):
// PushRT(SensorTemperature) matches any temperature reading.
func (b *Builder) PushRT(s SensorType) *Builder { return b.emit(vm.OpPushrt, asm.Val(s)) }

// PushLoc pushes a location built from immediate coordinates (pushloc;
// each must fit a signed byte).
func (b *Builder) PushLoc(x, y int) *Builder { return b.emit(vm.OpPushloc, asm.Val(x), asm.Val(y)) }

// PushLocV pushes a Location value (pushloc).
func (b *Builder) PushLocV(l Location) *Builder { return b.PushLoc(int(l.X), int(l.Y)) }

// Push emits the push instruction for a typed field value: PushN for
// strings, PushC/PushCL for integers, PushT for type wildcards, PushLocV
// for locations. Sensor readings and agent IDs have no immediate form.
func (b *Builder) Push(v Value) *Builder {
	switch v.Kind {
	case tuplespace.KindValue:
		if v.A >= 0 && v.A <= 255 {
			return b.PushC(int(v.A))
		}
		return b.PushCL(int(v.A))
	case tuplespace.KindString:
		return b.PushN(v.Name())
	case tuplespace.KindType:
		return b.PushT(TypeCode(v.A))
	case tuplespace.KindLocation:
		return b.PushLoc(int(v.A), int(v.B))
	default:
		return b.failf("cannot push a %v field as an immediate", v.Kind)
	}
}

// pushFields emits pushes for the fields and their count; with no fields
// it emits nothing (the operands are already on the stack).
func (b *Builder) pushFields(fields []Value) *Builder {
	if len(fields) == 0 {
		return b
	}
	for _, f := range fields {
		b.Push(f)
	}
	return b.PushC(len(fields))
}

// --- tuple space operations ---
//
// Each takes optional typed fields: Out(Str("hi"), LocV(l)) emits the
// field pushes and the count before the instruction; Out() emits the
// bare instruction for a tuple already assembled on the stack.

// Out inserts a tuple into the local tuple space.
func (b *Builder) Out(fields ...Value) *Builder { return b.pushFields(fields).emit(vm.OpOut) }

// Inp removes the first matching tuple (non-blocking probe).
func (b *Builder) Inp(fields ...Value) *Builder { return b.pushFields(fields).emit(vm.OpInp) }

// Rdp copies the first matching tuple (non-blocking probe).
func (b *Builder) Rdp(fields ...Value) *Builder { return b.pushFields(fields).emit(vm.OpRdp) }

// In removes the first matching tuple, blocking until one exists.
func (b *Builder) In(fields ...Value) *Builder { return b.pushFields(fields).emit(vm.OpIn) }

// Rd copies the first matching tuple, blocking until one exists.
func (b *Builder) Rd(fields ...Value) *Builder { return b.pushFields(fields).emit(vm.OpRd) }

// Tcount pushes the number of local tuples matching the template.
func (b *Builder) Tcount(fields ...Value) *Builder { return b.pushFields(fields).emit(vm.OpTcount) }

// Rout inserts a tuple into a remote tuple space; the destination
// location must be on top of the stack (above the tuple). See RoutTo.
func (b *Builder) Rout() *Builder { return b.emit(vm.OpRout) }

// Rinp removes a matching tuple from a remote space; destination on top.
func (b *Builder) Rinp() *Builder { return b.emit(vm.OpRinp) }

// Rrdp copies a matching tuple from a remote space; destination on top.
func (b *Builder) Rrdp() *Builder { return b.emit(vm.OpRrdp) }

// RoutTo is Rout with an immediate destination and typed fields.
func (b *Builder) RoutTo(dest Location, fields ...Value) *Builder {
	return b.pushFields(fields).PushLocV(dest).Rout()
}

// RinpFrom is Rinp with an immediate destination and typed template fields.
func (b *Builder) RinpFrom(dest Location, fields ...Value) *Builder {
	return b.pushFields(fields).PushLocV(dest).Rinp()
}

// RrdpFrom is Rrdp with an immediate destination and typed template fields.
func (b *Builder) RrdpFrom(dest Location, fields ...Value) *Builder {
	return b.pushFields(fields).PushLocV(dest).Rrdp()
}

// Regrxn registers a reaction; the stack must hold the template fields,
// their count, and the entry address on top (see React for the idiom).
func (b *Builder) Regrxn() *Builder { return b.emit(vm.OpRegrxn) }

// Deregrxn deregisters the agent's reaction matching the template.
func (b *Builder) Deregrxn(fields ...Value) *Builder { return b.pushFields(fields).emit(vm.OpDeregrxn) }

// --- assembly ---

// Build links the program — the same layout, label resolution, operand
// checks and static verification assembly source gets — and reports
// every error, positioned by build step and nearest label.
func (b *Builder) Build() (*Program, error) {
	unit, diags := b.list.Link()
	errs := slices.Clip(b.errs) // appending must not reach into the builder
	for _, d := range diags {
		errs = append(errs, fmt.Errorf("%s: %s", stepPos(b.list.Stmts, d.Index), d.Msg))
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("%w: %w", ErrVerify, errors.Join(errs...))
	}
	return &Program{name: b.name, unit: unit}, nil
}

// MustBuild is Build, panicking on error; for hard-coded programs.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
