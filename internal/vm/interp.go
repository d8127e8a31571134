package vm

import (
	"fmt"
	"strings"
	"time"

	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/wire"
)

// Host is the set of node services an instruction may touch synchronously:
// the context manager (location, neighbor list), the sensor board, LEDs,
// the local tuple space manager, and the reaction registry. Asynchronous
// services (migration, remote tuple space operations) are requested
// through the Outcome instead.
//
// A tuple or template passed to a Host method is valid only during the
// call: its fields are the host's Scratch, which the next tuple
// instruction overwrites. The callee copies whatever it keeps — the
// tuple space its encoding, the registry its template, a reaction firing
// its tuple.
type Host interface {
	// Loc returns this node's location (the loc instruction).
	Loc() topology.Location
	// RandInt16 returns a uniform value in [0, n); n must be positive.
	RandInt16(n int16) int16

	// NumNeighbors and Neighbor expose the acquaintance list.
	NumNeighbors() int
	Neighbor(i int) (topology.Location, bool)

	// Sense samples a sensor; ok is false if the board lacks it.
	Sense(s tuplespace.SensorType) (int16, bool)
	// SetLED drives the mote's LEDs (putled).
	SetLED(v int16)

	// Scratch returns the storage the tuple instructions run on this
	// host work in. Instructions on one host never nest, so every agent
	// it runs may share one; it is never per agent.
	Scratch() *Scratch

	// Local tuple space operations. TSInp and TSRdp append the fields of
	// the tuple they find to dst and return it: it is dst's storage.
	TSOut(t tuplespace.Tuple) error
	TSInp(p tuplespace.Template, dst []tuplespace.Value) (tuplespace.Tuple, bool)
	TSRdp(p tuplespace.Template, dst []tuplespace.Value) (tuplespace.Tuple, bool)
	TSCount(p tuplespace.Template) int

	// Reaction registry operations for the executing agent.
	RegisterReaction(r tuplespace.Reaction) error
	DeregisterReaction(agentID uint16, p tuplespace.Template) bool
}

// Scratch is what a tuple instruction works in instead of the heap:
// Fields receives the fields it pops (PopFields), Hit the tuple a lookup
// finds (TSInp, TSRdp). Its contents last one instruction. An Outcome
// whose Block, Tuple or Template it backs must be copied by the engine
// before the host runs its next instruction.
type Scratch struct {
	Fields [StackDepth]tuplespace.Value
	Hit    [tuplespace.MaxTupleBytes]tuplespace.Value
}

// Effect tells the engine what to do after an instruction.
type Effect uint8

// Effects.
const (
	// EffectNone: instruction completed; keep running the agent.
	EffectNone Effect = iota
	// EffectHalt: the agent executed halt and must be reclaimed.
	EffectHalt
	// EffectSleep: suspend the agent for Outcome.Sleep of virtual time.
	EffectSleep
	// EffectWait: suspend until one of the agent's reactions fires.
	EffectWait
	// EffectBlocked: a blocking in/rd found no match. The stack has been
	// rolled back and the PC still addresses the blocking instruction;
	// re-run the agent when a tuple is inserted.
	EffectBlocked
	// EffectMigrate: carry out Outcome.Migrate to Outcome.Dest.
	EffectMigrate
	// EffectRemote: carry out the remote tuple space operation described
	// by Outcome.Remote, Outcome.Dest, Outcome.Tuple/Template.
	EffectRemote
	// EffectError: the agent died with Outcome.Err.
	EffectError
)

// MigrateKind distinguishes the four migration instructions. It is the
// kind the migration travels under on the wire, so the engine hands an
// Outcome's kind to the codec without translating it.
type MigrateKind = wire.MigKind

// Migration kinds.
const (
	MigrateNone MigrateKind = 0
	StrongMove              = wire.MigStrongMove
	WeakMove                = wire.MigWeakMove
	StrongClone             = wire.MigStrongClone
	WeakClone               = wire.MigWeakClone
)

// RemoteKind distinguishes the remote tuple space instructions; like
// MigrateKind it is the wire's own enumeration.
type RemoteKind = wire.RemoteOp

// Remote op kinds.
const (
	RemoteNone RemoteKind = 0
	RemoteOut             = wire.OpRout
	RemoteInp             = wire.OpRinp
	RemoteRdp             = wire.OpRrdp
)

// Outcome reports one instruction's execution to the engine.
type Outcome struct {
	Effect Effect
	// Op is the instruction that produced this outcome.
	Op Op
	// Cost is the modelled execution latency of the instruction.
	Cost time.Duration

	// Sleep is the requested suspension for EffectSleep.
	Sleep time.Duration

	// Block describes the unsatisfied template for EffectBlocked, and
	// BlockRemove whether the retry should remove (in) or copy (rd).
	// Block, Tuple and Template are views of the host's Scratch.
	Block       tuplespace.Template
	BlockRemove bool

	// Migrate and Dest describe EffectMigrate.
	Migrate MigrateKind
	// Remote describes EffectRemote; Dest is shared with migration.
	Remote   RemoteKind
	Dest     topology.Location
	Tuple    tuplespace.Tuple    // rout payload
	Template tuplespace.Template // rinp/rrdp pattern

	// Err is set for EffectError.
	Err error
}

// SleepTick is the granularity of the sleep instruction's operand, chosen
// so Figure 13's `pushcl 4800, sleep` waits 600 s (TinyOS runs timers off
// a 128 Hz-derived tick; Agilla uses 1/8 s units).
const SleepTick = time.Second / 8

// inst is one instruction decoded for execution: everything its
// semantics read besides the agent and the host. Step decodes one on its
// stack per call; Compile decodes each instruction of a verified program
// once and binds the record to the same semantics.
type inst struct {
	op     Op
	slot   uint8  // getvar/setvar: the heap slot operand, unchecked
	pc     uint16 // the instruction's own address
	next   uint16 // the fall-through address
	target uint16 // rjump/rjumpc: the branch destination
	cost   time.Duration
	imm    tuplespace.Value // the push-immediate instructions' value
}

// decode fills in from the instruction at code[pc]. Its error, for a pc
// past the end, an undefined opcode or truncated operands, is the one
// the agent dies of; in.op is set as soon as it is known.
func decode(code []byte, pc uint16, in *inst) error {
	if int(pc) >= len(code) {
		return fmt.Errorf("%w: pc=%d code=%dB", ErrBadPC, pc, len(code))
	}
	in.op = Op(code[pc])
	info := &infoTable[in.op]
	if info.Name == "" {
		return fmt.Errorf("%w: 0x%02x at pc=%d", ErrUnknownOpcode, code[pc], pc)
	}
	end := int(pc) + 1 + info.Operands
	if end > len(code) {
		return fmt.Errorf("%w: truncated %s at pc=%d", ErrBadPC, info.Name, pc)
	}
	args := code[pc+1 : end]
	in.pc, in.next, in.cost = pc, uint16(end), info.Cost
	switch info.Kind {
	case OperandU8:
		in.imm = tuplespace.Int(int16(args[0]))
	case OperandS16:
		in.imm = tuplespace.Int(int16(uint16(args[0])<<8 | uint16(args[1])))
	case OperandName3:
		in.imm = tuplespace.Str(strings.TrimRight(string(args), "\x00"))
	case OperandType:
		in.imm = tuplespace.TypeV(tuplespace.TypeCode(args[0]))
	case OperandSensor:
		in.imm = tuplespace.TypeV(tuplespace.TypeOfSensor(tuplespace.SensorType(args[0])))
	case OperandLoc:
		in.imm = tuplespace.LocV(topology.Loc(int16(int8(args[0])), int16(int8(args[1]))))
	case OperandRel:
		in.target = pc + uint16(int16(int8(args[0])))
	case OperandHeap:
		in.slot = args[0]
	}
	return nil
}

// Step executes exactly one instruction of a. It never blocks: long
// operations are reported through the Outcome for the engine to carry out.
// On EffectError the agent's architectural state is unspecified and the
// engine must reclaim it.
func Step(a *Agent, h Host) Outcome {
	var in inst
	if err := decode(a.Code, a.PC, &in); err != nil {
		return Outcome{Effect: EffectError, Op: in.op, Err: err}
	}
	out := Outcome{Op: in.op, Cost: in.cost}
	next, err := in.exec(a, h, &out)
	if err != nil {
		in.fail(&out, err)
	} else {
		a.PC = next
	}
	return out
}

// fail sets out to the Outcome of an agent dying of err inside in: the
// cause wrapped as "<name> at pc=N: <cause>".
func (in *inst) fail(out *Outcome, err error) {
	*out = Outcome{Effect: EffectError, Op: in.op, Cost: in.cost, Err: fmt.Errorf("%s at pc=%d: %w", infoTable[in.op].Name, in.pc, err)}
}

// semantics is one opcode family's state transition. It returns the PC
// the agent continues at, or the error it dies of; effects beyond the
// agent's own state go into out, which the caller has reset to the
// instruction's opcode and cost.
type semantics func(in *inst, a *Agent, h Host, out *Outcome) (next uint16, err error)

// semanticsTable is what Compile binds each instruction to. exec is the
// same mapping as a switch of direct calls, so Step's record stays on its
// stack; TestSemanticsCoverISA keeps the two and the ISA table in step.
var semanticsTable = [256]semantics{
	OpHalt: execHalt, OpWait: execWait,
	OpLoc: execRegister, OpAid: execRegister, OpRand: execRegister, OpNumnbrs: execRegister,
	OpPushc: execPush, OpPushcl: execPush, OpPushn: execPush, OpPusht: execPush, OpPushrt: execPush, OpPushloc: execPush,
	OpDup: execStack, OpPop: execStack, OpSwap: execStack,
	OpAdd: execArith, OpSub: execArith, OpAnd: execArith, OpOr: execArith,
	OpNot: execUnary, OpInc: execUnary,
	OpCeq: execCompare, OpCneq: execCompare, OpClt: execCompare, OpCgt: execCompare,
	OpEq: execCompare, OpNeq: execCompare, OpLt: execCompare, OpGt: execCompare,
	OpJumps: execJumps, OpRjump: execBranch, OpRjumpc: execBranch,
	OpGetvar: execHeap, OpSetvar: execHeap,
	OpSleep: execSleep, OpPutled: execPutled, OpSense: execSense,
	OpGetnbr: execNeighbor, OpRandnbr: execNeighbor,
	OpOut: execOut, OpInp: execRead, OpRdp: execRead, OpIn: execRead, OpRd: execRead, OpTcount: execTcount,
	OpRegrxn: execRegrxn, OpDeregrxn: execDeregrxn,
	OpSmove: execMigrate, OpWmove: execMigrate, OpSclone: execMigrate, OpWclone: execMigrate,
	OpRout: execRemote, OpRinp: execRemote, OpRrdp: execRemote,
}

func (in *inst) exec(a *Agent, h Host, out *Outcome) (uint16, error) {
	switch in.op {
	case OpHalt:
		return execHalt(in, a, h, out)
	case OpWait:
		return execWait(in, a, h, out)
	case OpLoc, OpAid, OpRand, OpNumnbrs:
		return execRegister(in, a, h, out)
	case OpPushc, OpPushcl, OpPushn, OpPusht, OpPushrt, OpPushloc:
		return execPush(in, a, h, out)
	case OpDup, OpPop, OpSwap:
		return execStack(in, a, h, out)
	case OpAdd, OpSub, OpAnd, OpOr:
		return execArith(in, a, h, out)
	case OpNot, OpInc:
		return execUnary(in, a, h, out)
	case OpCeq, OpCneq, OpClt, OpCgt, OpEq, OpNeq, OpLt, OpGt:
		return execCompare(in, a, h, out)
	case OpJumps:
		return execJumps(in, a, h, out)
	case OpRjump, OpRjumpc:
		return execBranch(in, a, h, out)
	case OpGetvar, OpSetvar:
		return execHeap(in, a, h, out)
	case OpSleep:
		return execSleep(in, a, h, out)
	case OpPutled:
		return execPutled(in, a, h, out)
	case OpSense:
		return execSense(in, a, h, out)
	case OpGetnbr, OpRandnbr:
		return execNeighbor(in, a, h, out)
	case OpOut:
		return execOut(in, a, h, out)
	case OpInp, OpRdp, OpIn, OpRd:
		return execRead(in, a, h, out)
	case OpTcount:
		return execTcount(in, a, h, out)
	case OpRegrxn:
		return execRegrxn(in, a, h, out)
	case OpDeregrxn:
		return execDeregrxn(in, a, h, out)
	case OpSmove, OpWmove, OpSclone, OpWclone:
		return execMigrate(in, a, h, out)
	case OpRout, OpRinp, OpRrdp:
		return execRemote(in, a, h, out)
	}
	return 0, ErrUnknownOpcode
}

// flag is a condition code or pushed truth value: 1 for true, 0 for false.
func flag(ok bool) int16 {
	if ok {
		return 1
	}
	return 0
}

func execHalt(in *inst, _ *Agent, _ Host, out *Outcome) (uint16, error) {
	out.Effect = EffectHalt
	return in.pc, nil // the PC stays on the halt so a halted agent is identifiable
}

func execWait(in *inst, _ *Agent, _ Host, out *Outcome) (uint16, error) {
	out.Effect = EffectWait
	return in.next, nil
}

// execRegister pushes a register or context value: loc, aid, rand, numnbrs.
func execRegister(in *inst, a *Agent, h Host, _ *Outcome) (uint16, error) {
	var v tuplespace.Value
	switch in.op {
	case OpLoc:
		v = tuplespace.LocV(h.Loc())
	case OpAid:
		v = tuplespace.AgentIDV(a.ID)
	case OpRand:
		v = tuplespace.Int(h.RandInt16(32767))
	case OpNumnbrs:
		v = tuplespace.Int(int16(h.NumNeighbors()))
	}
	return in.next, a.Push(v)
}

// execPush pushes the immediate decode built: pushc, pushcl, pushn, pusht,
// pushrt, pushloc.
func execPush(in *inst, a *Agent, _ Host, _ *Outcome) (uint16, error) {
	return in.next, a.Push(in.imm)
}

// execStack: dup, pop, swap.
func execStack(in *inst, a *Agent, _ Host, _ *Outcome) (uint16, error) {
	x, err := a.Pop()
	if err != nil || in.op == OpPop {
		return in.next, err
	}
	if in.op == OpDup {
		_ = a.Push(x) // refills the slot just popped
		return in.next, a.Push(x)
	}
	y, err := a.Pop()
	if err != nil {
		return 0, err
	}
	_ = a.Push(x) // refills a slot just popped
	return in.next, a.Push(y)
}

// execArith: add, sub, and, or of the value beneath the top (t2) and the
// top (t1).
func execArith(in *inst, a *Agent, _ Host, _ *Outcome) (uint16, error) {
	t1, err := a.PopInt()
	if err != nil {
		return 0, err
	}
	t2, err := a.PopInt()
	if err != nil {
		return 0, err
	}
	switch in.op {
	case OpAdd:
		t2 += t1
	case OpSub:
		t2 -= t1
	case OpAnd:
		t2 &= t1
	case OpOr:
		t2 |= t1
	}
	return in.next, a.Push(tuplespace.Int(t2))
}

// execUnary: not, inc.
func execUnary(in *inst, a *Agent, _ Host, _ *Outcome) (uint16, error) {
	t, err := a.PopInt()
	if err != nil {
		return 0, err
	}
	if in.op == OpNot {
		t = ^t
	} else {
		t++
	}
	return in.next, a.Push(tuplespace.Int(t))
}

// execCompare: the c* forms set the condition, the others push the
// result. Both measure the value beneath the top against the top:
// `sense; pushcl 200; clt` sets the condition when the reading exceeds
// 200 (Figure 13).
func execCompare(in *inst, a *Agent, _ Host, _ *Outcome) (uint16, error) {
	t1, err := a.PopInt() // top
	if err != nil {
		return 0, err
	}
	t2, err := a.PopInt() // beneath
	if err != nil {
		return 0, err
	}
	var c bool
	switch in.op {
	case OpCeq, OpEq:
		c = t2 == t1
	case OpCneq, OpNeq:
		c = t2 != t1
	case OpClt, OpLt:
		c = t1 < t2
	case OpCgt, OpGt:
		c = t1 > t2
	}
	switch in.op {
	case OpCeq, OpCneq, OpClt, OpCgt:
		a.Condition = flag(c)
		return in.next, nil
	}
	return in.next, a.Push(tuplespace.Int(flag(c)))
}

// execJumps jumps to the address it pops.
func execJumps(_ *inst, a *Agent, _ Host, _ *Outcome) (uint16, error) {
	addr, err := a.PopInt()
	if err != nil {
		return 0, err
	}
	if addr < 0 || int(addr) >= len(a.Code) {
		return 0, fmt.Errorf("%w: jump target %d", ErrBadPC, addr)
	}
	return uint16(addr), nil
}

// execBranch: rjump always, rjumpc when the condition is set.
func execBranch(in *inst, a *Agent, _ Host, _ *Outcome) (uint16, error) {
	if in.op == OpRjump || a.Condition != 0 {
		return in.target, nil
	}
	return in.next, nil
}

// execHeap: getvar pushes a heap slot, setvar pops into one. Verify
// rejects a slot out of range, but unverified code dies on it here.
func execHeap(in *inst, a *Agent, _ Host, _ *Outcome) (uint16, error) {
	if int(in.slot) >= HeapSlots {
		return 0, fmt.Errorf("%w: %d", ErrBadHeapAddr, in.slot)
	}
	if in.op == OpGetvar {
		return in.next, a.Push(a.Heap[in.slot])
	}
	v, err := a.Pop()
	if err != nil {
		return 0, err
	}
	a.Heap[in.slot] = v
	return in.next, nil
}

func execSleep(in *inst, a *Agent, _ Host, out *Outcome) (uint16, error) {
	ticks, err := a.PopInt()
	if err != nil {
		return 0, err
	}
	out.Effect = EffectSleep
	out.Sleep = time.Duration(max(ticks, 0)) * SleepTick
	return in.next, nil
}

func execPutled(in *inst, a *Agent, h Host, _ *Outcome) (uint16, error) {
	v, err := a.PopInt()
	if err != nil {
		return 0, err
	}
	h.SetLED(v)
	return in.next, nil
}

// execSense pushes a reading of the sensor it pops. Sensing a missing
// sensor clears the condition and pushes a zero reading so agents can
// recover.
func execSense(in *inst, a *Agent, h Host, _ *Outcome) (uint16, error) {
	st, err := a.PopInt()
	if err != nil {
		return 0, err
	}
	r, ok := h.Sense(tuplespace.SensorType(st))
	if !ok {
		r = 0
	}
	a.Condition = flag(ok)
	return in.next, a.Push(tuplespace.Reading(tuplespace.SensorType(st), r))
}

// execNeighbor pushes an acquaintance: getnbr the one at the index it
// pops, randnbr a random one. The condition reports whether there was one.
func execNeighbor(in *inst, a *Agent, h Host, _ *Outcome) (uint16, error) {
	var l topology.Location
	var ok bool
	if in.op == OpGetnbr {
		i, err := a.PopInt()
		if err != nil {
			return 0, err
		}
		l, ok = h.Neighbor(int(i))
	} else if n := h.NumNeighbors(); n > 0 {
		l, _ = h.Neighbor(int(h.RandInt16(int16(n))))
		ok = true
	}
	a.Condition = flag(ok)
	return in.next, a.Push(tuplespace.LocV(l))
}

// execOut inserts the tuple it pops. A full tuple space clears the
// condition rather than killing the agent; resource exhaustion is an
// expected condition on a mote.
func execOut(in *inst, a *Agent, h Host, _ *Outcome) (uint16, error) {
	fields, err := a.PopFields(&h.Scratch().Fields)
	if err != nil {
		return 0, err
	}
	a.Condition = flag(h.TSOut(tuplespace.Tuple{Fields: fields}) == nil)
	return in.next, nil
}

// execRead: inp and rdp probe for the template they pop and report a
// miss in the condition; in and rd block on a miss, rolling the operands
// back and leaving the PC on the instruction to be retried when a tuple
// arrives (§3.4). A hit pushes the tuple's fields and count.
func execRead(in *inst, a *Agent, h Host, out *Outcome) (uint16, error) {
	sp := a.snapshotSP()
	sc := h.Scratch()
	fields, err := a.PopFields(&sc.Fields)
	if err != nil {
		return 0, err
	}
	p := tuplespace.Template{Fields: fields}
	remove := in.op == OpInp || in.op == OpIn
	var t tuplespace.Tuple
	var found bool
	if remove {
		t, found = h.TSInp(p, sc.Hit[:0])
	} else {
		t, found = h.TSRdp(p, sc.Hit[:0])
	}
	switch {
	case found:
		a.Condition = 1
		return in.next, a.PushFields(t.Fields)
	case in.op.blocksOnMiss():
		a.restoreSP(sp)
		out.Effect, out.Block, out.BlockRemove = EffectBlocked, p, remove
		return in.pc, nil
	}
	a.Condition = 0
	return in.next, nil
}

func execTcount(in *inst, a *Agent, h Host, _ *Outcome) (uint16, error) {
	fields, err := a.PopFields(&h.Scratch().Fields)
	if err != nil {
		return 0, err
	}
	n := h.TSCount(tuplespace.Template{Fields: fields})
	return in.next, a.Push(tuplespace.Int(int16(n)))
}

// execRegrxn registers a reaction: the entry address on top, the
// template beneath.
func execRegrxn(in *inst, a *Agent, h Host, _ *Outcome) (uint16, error) {
	addr, err := a.PopInt()
	if err != nil {
		return 0, err
	}
	if addr < 0 || int(addr) >= len(a.Code) {
		return 0, fmt.Errorf("%w: reaction address %d", ErrBadPC, addr)
	}
	fields, err := a.PopFields(&h.Scratch().Fields)
	if err != nil {
		return 0, err
	}
	r := tuplespace.Reaction{AgentID: a.ID, Template: tuplespace.Template{Fields: fields}, PC: uint16(addr)}
	a.Condition = flag(h.RegisterReaction(r) == nil)
	return in.next, nil
}

func execDeregrxn(in *inst, a *Agent, h Host, _ *Outcome) (uint16, error) {
	fields, err := a.PopFields(&h.Scratch().Fields)
	if err != nil {
		return 0, err
	}
	a.Condition = flag(h.DeregisterReaction(a.ID, tuplespace.Template{Fields: fields}))
	return in.next, nil
}

// execMigrate: smove, wmove, sclone, wclone to the location popped.
func execMigrate(in *inst, a *Agent, _ Host, out *Outcome) (uint16, error) {
	dest, err := a.PopLoc()
	if err != nil {
		return 0, err
	}
	out.Effect, out.Dest = EffectMigrate, dest.Loc()
	switch in.op {
	case OpSmove:
		out.Migrate = StrongMove
	case OpWmove:
		out.Migrate = WeakMove
	case OpSclone:
		out.Migrate = StrongClone
	case OpWclone:
		out.Migrate = WeakClone
	}
	return in.next, nil
}

// execRemote: rout sends the tuple, rinp and rrdp the template, popped
// from beneath the destination.
func execRemote(in *inst, a *Agent, h Host, out *Outcome) (uint16, error) {
	dest, err := a.PopLoc()
	if err != nil {
		return 0, err
	}
	fields, err := a.PopFields(&h.Scratch().Fields)
	if err != nil {
		return 0, err
	}
	out.Effect, out.Dest = EffectRemote, dest.Loc()
	switch in.op {
	case OpRout:
		out.Remote, out.Tuple = RemoteOut, tuplespace.Tuple{Fields: fields}
	case OpRinp:
		out.Remote, out.Template = RemoteInp, tuplespace.Template{Fields: fields}
	case OpRrdp:
		out.Remote, out.Template = RemoteRdp, tuplespace.Template{Fields: fields}
	}
	return in.next, nil
}
