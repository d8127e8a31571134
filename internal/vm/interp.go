package vm

import (
	"fmt"
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

	// Local tuple space operations.
	TSOut(t tuplespace.Tuple) error
	TSInp(p tuplespace.Template) (tuplespace.Tuple, bool)
	TSRdp(p tuplespace.Template) (tuplespace.Tuple, bool)
	TSCount(p tuplespace.Template) int

	// Reaction registry operations for the executing agent.
	RegisterReaction(r tuplespace.Reaction) error
	DeregisterReaction(agentID uint16, p tuplespace.Template) bool
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

// Step executes exactly one instruction of a. It never blocks: long
// operations are reported through the Outcome for the engine to carry out.
// On EffectError the agent's architectural state is unspecified and the
// engine must reclaim it.
func Step(a *Agent, h Host) Outcome {
	if int(a.PC) >= len(a.Code) {
		return failf(0, "%w: pc=%d code=%dB", ErrBadPC, a.PC, len(a.Code))
	}
	op := Op(a.Code[a.PC])
	info, ok := infoTable[op]
	if !ok {
		return failf(op, "%w: 0x%02x at pc=%d", ErrUnknownOpcode, byte(op), a.PC)
	}
	if int(a.PC)+1+info.Operands > len(a.Code) {
		return failf(op, "%w: truncated %s at pc=%d", ErrBadPC, info.Name, a.PC)
	}
	operands := a.Code[a.PC+1 : int(a.PC)+1+info.Operands]
	savedSP := a.snapshotSP()
	nextPC := a.PC + uint16(1+info.Operands)

	out := Outcome{Effect: EffectNone, Op: op, Cost: info.Cost}
	fail := func(err error) Outcome {
		return Outcome{Effect: EffectError, Op: op, Cost: info.Cost, Err: fmt.Errorf("%s at pc=%d: %w", info.Name, a.PC, err)}
	}

	switch op {
	case OpHalt:
		// Leave the PC on the halt so a halted agent is identifiable.
		out.Effect = EffectHalt
		return out

	case OpLoc:
		if err := a.Push(tuplespace.LocV(h.Loc())); err != nil {
			return fail(err)
		}
	case OpAid:
		if err := a.Push(tuplespace.AgentIDV(a.ID)); err != nil {
			return fail(err)
		}
	case OpRand:
		if err := a.Push(tuplespace.Int(h.RandInt16(32767))); err != nil {
			return fail(err)
		}
	case OpDup:
		v, err := a.Peek()
		if err != nil {
			return fail(err)
		}
		if err := a.Push(v); err != nil {
			return fail(err)
		}
	case OpPop:
		if _, err := a.Pop(); err != nil {
			return fail(err)
		}
	case OpSwap:
		x, err := a.Pop()
		if err != nil {
			return fail(err)
		}
		y, err := a.Pop()
		if err != nil {
			return fail(err)
		}
		if err := a.Push(x); err != nil {
			return fail(err)
		}
		if err := a.Push(y); err != nil {
			return fail(err)
		}

	case OpAdd, OpSub, OpAnd, OpOr:
		t1, err := a.PopInt()
		if err != nil {
			return fail(err)
		}
		t2, err := a.PopInt()
		if err != nil {
			return fail(err)
		}
		var r int16
		switch op {
		case OpAdd:
			r = t2 + t1
		case OpSub:
			r = t2 - t1
		case OpAnd:
			r = t2 & t1
		case OpOr:
			r = t2 | t1
		}
		if err := a.Push(tuplespace.Int(r)); err != nil {
			return fail(err)
		}
	case OpNot:
		t1, err := a.PopInt()
		if err != nil {
			return fail(err)
		}
		if err := a.Push(tuplespace.Int(^t1)); err != nil {
			return fail(err)
		}
	case OpInc:
		t1, err := a.PopInt()
		if err != nil {
			return fail(err)
		}
		if err := a.Push(tuplespace.Int(t1 + 1)); err != nil {
			return fail(err)
		}

	case OpCeq, OpCneq, OpClt, OpCgt:
		// Comparisons measure the value beneath the top against the top:
		// `sense; pushcl 200; clt` sets the condition when the reading
		// exceeds 200 (Figure 13).
		t1, err := a.PopInt() // top
		if err != nil {
			return fail(err)
		}
		t2, err := a.PopInt() // beneath
		if err != nil {
			return fail(err)
		}
		var c bool
		switch op {
		case OpCeq:
			c = t2 == t1
		case OpCneq:
			c = t2 != t1
		case OpClt:
			c = t1 < t2
		case OpCgt:
			c = t1 > t2
		}
		a.Condition = 0
		if c {
			a.Condition = 1
		}
	case OpEq, OpNeq, OpLt, OpGt:
		t1, err := a.PopInt()
		if err != nil {
			return fail(err)
		}
		t2, err := a.PopInt()
		if err != nil {
			return fail(err)
		}
		var c bool
		switch op {
		case OpEq:
			c = t2 == t1
		case OpNeq:
			c = t2 != t1
		case OpLt:
			c = t1 < t2
		case OpGt:
			c = t1 > t2
		}
		r := int16(0)
		if c {
			r = 1
		}
		if err := a.Push(tuplespace.Int(r)); err != nil {
			return fail(err)
		}

	case OpJumps:
		addr, err := a.PopInt()
		if err != nil {
			return fail(err)
		}
		if addr < 0 || int(addr) >= len(a.Code) {
			return fail(fmt.Errorf("%w: jump target %d", ErrBadPC, addr))
		}
		nextPC = uint16(addr)
	case OpRjump:
		nextPC = a.PC + uint16(int16(int8(operands[0])))
	case OpRjumpc:
		if a.Condition != 0 {
			nextPC = a.PC + uint16(int16(int8(operands[0])))
		}
	case OpGetvar:
		idx := int(operands[0])
		if idx >= HeapSlots {
			return fail(fmt.Errorf("%w: %d", ErrBadHeapAddr, idx))
		}
		if err := a.Push(a.Heap[idx]); err != nil {
			return fail(err)
		}
	case OpSetvar:
		idx := int(operands[0])
		if idx >= HeapSlots {
			return fail(fmt.Errorf("%w: %d", ErrBadHeapAddr, idx))
		}
		v, err := a.Pop()
		if err != nil {
			return fail(err)
		}
		a.Heap[idx] = v

	case OpSleep:
		ticks, err := a.PopInt()
		if err != nil {
			return fail(err)
		}
		if ticks < 0 {
			ticks = 0
		}
		out.Effect = EffectSleep
		out.Sleep = time.Duration(ticks) * SleepTick
	case OpWait:
		out.Effect = EffectWait
	case OpPutled:
		v, err := a.PopInt()
		if err != nil {
			return fail(err)
		}
		h.SetLED(v)
	case OpSense:
		st, err := a.PopInt()
		if err != nil {
			return fail(err)
		}
		r, ok := h.Sense(tuplespace.SensorType(st))
		if !ok {
			// Sensing a missing sensor clears the condition and pushes a
			// zero reading so agents can recover.
			a.Condition = 0
			r = 0
		} else {
			a.Condition = 1
		}
		if err := a.Push(tuplespace.Reading(tuplespace.SensorType(st), r)); err != nil {
			return fail(err)
		}

	case OpPushc:
		if err := a.Push(tuplespace.Int(int16(operands[0]))); err != nil {
			return fail(err)
		}
	case OpPushcl:
		v := int16(uint16(operands[0])<<8 | uint16(operands[1]))
		if err := a.Push(tuplespace.Int(v)); err != nil {
			return fail(err)
		}
	case OpPushn:
		name := string(operands[:3])
		for len(name) > 0 && name[len(name)-1] == 0 {
			name = name[:len(name)-1]
		}
		if err := a.Push(tuplespace.Str(name)); err != nil {
			return fail(err)
		}
	case OpPusht:
		if err := a.Push(tuplespace.TypeV(tuplespace.TypeCode(operands[0]))); err != nil {
			return fail(err)
		}
	case OpPushrt:
		tc := tuplespace.TypeOfSensor(tuplespace.SensorType(operands[0]))
		if err := a.Push(tuplespace.TypeV(tc)); err != nil {
			return fail(err)
		}
	case OpPushloc:
		l := topology.Loc(int16(int8(operands[0])), int16(int8(operands[1])))
		if err := a.Push(tuplespace.LocV(l)); err != nil {
			return fail(err)
		}

	case OpNumnbrs:
		if err := a.Push(tuplespace.Int(int16(h.NumNeighbors()))); err != nil {
			return fail(err)
		}
	case OpGetnbr:
		i, err := a.PopInt()
		if err != nil {
			return fail(err)
		}
		l, ok := h.Neighbor(int(i))
		a.Condition = 0
		if ok {
			a.Condition = 1
		}
		if err := a.Push(tuplespace.LocV(l)); err != nil {
			return fail(err)
		}
	case OpRandnbr:
		n := h.NumNeighbors()
		a.Condition = 0
		var l topology.Location
		if n > 0 {
			l, _ = h.Neighbor(int(h.RandInt16(int16(n))))
			a.Condition = 1
		}
		if err := a.Push(tuplespace.LocV(l)); err != nil {
			return fail(err)
		}

	case OpOut:
		fields, err := a.PopFields()
		if err != nil {
			return fail(err)
		}
		if err := h.TSOut(tuplespace.Tuple{Fields: fields}); err != nil {
			// A full tuple space clears the condition rather than
			// killing the agent; resource exhaustion is an expected
			// condition on a mote.
			a.Condition = 0
		} else {
			a.Condition = 1
		}
	case OpInp, OpRdp:
		fields, err := a.PopFields()
		if err != nil {
			return fail(err)
		}
		p := tuplespace.Template{Fields: fields}
		var t tuplespace.Tuple
		var found bool
		if op == OpInp {
			t, found = h.TSInp(p)
		} else {
			t, found = h.TSRdp(p)
		}
		if !found {
			a.Condition = 0
			break
		}
		a.Condition = 1
		if err := a.PushFields(t.Fields); err != nil {
			return fail(err)
		}
	case OpIn, OpRd:
		fields, err := a.PopFields()
		if err != nil {
			return fail(err)
		}
		p := tuplespace.Template{Fields: fields}
		var t tuplespace.Tuple
		var found bool
		if op == OpIn {
			t, found = h.TSInp(p)
		} else {
			t, found = h.TSRdp(p)
		}
		if !found {
			// Block: roll the operands back and retry this instruction
			// when a tuple arrives (§3.4).
			a.restoreSP(savedSP)
			out.Effect = EffectBlocked
			out.Block = p
			out.BlockRemove = op == OpIn
			return out
		}
		a.Condition = 1
		if err := a.PushFields(t.Fields); err != nil {
			return fail(err)
		}
	case OpTcount:
		fields, err := a.PopFields()
		if err != nil {
			return fail(err)
		}
		n := h.TSCount(tuplespace.Template{Fields: fields})
		if err := a.Push(tuplespace.Int(int16(n))); err != nil {
			return fail(err)
		}

	case OpRegrxn:
		addr, err := a.PopInt()
		if err != nil {
			return fail(err)
		}
		if addr < 0 || int(addr) >= len(a.Code) {
			return fail(fmt.Errorf("%w: reaction address %d", ErrBadPC, addr))
		}
		fields, err := a.PopFields()
		if err != nil {
			return fail(err)
		}
		r := tuplespace.Reaction{
			AgentID:  a.ID,
			Template: tuplespace.Template{Fields: fields},
			PC:       uint16(addr),
		}
		if err := h.RegisterReaction(r); err != nil {
			a.Condition = 0
		} else {
			a.Condition = 1
		}
	case OpDeregrxn:
		fields, err := a.PopFields()
		if err != nil {
			return fail(err)
		}
		if h.DeregisterReaction(a.ID, tuplespace.Template{Fields: fields}) {
			a.Condition = 1
		} else {
			a.Condition = 0
		}

	case OpSmove, OpWmove, OpSclone, OpWclone:
		dest, err := a.PopLoc()
		if err != nil {
			return fail(err)
		}
		out.Effect = EffectMigrate
		out.Dest = dest.Loc()
		switch op {
		case OpSmove:
			out.Migrate = StrongMove
		case OpWmove:
			out.Migrate = WeakMove
		case OpSclone:
			out.Migrate = StrongClone
		case OpWclone:
			out.Migrate = WeakClone
		}

	case OpRout:
		dest, err := a.PopLoc()
		if err != nil {
			return fail(err)
		}
		fields, err := a.PopFields()
		if err != nil {
			return fail(err)
		}
		out.Effect = EffectRemote
		out.Remote = RemoteOut
		out.Dest = dest.Loc()
		out.Tuple = tuplespace.Tuple{Fields: fields}
	case OpRinp, OpRrdp:
		dest, err := a.PopLoc()
		if err != nil {
			return fail(err)
		}
		fields, err := a.PopFields()
		if err != nil {
			return fail(err)
		}
		out.Effect = EffectRemote
		out.Dest = dest.Loc()
		out.Template = tuplespace.Template{Fields: fields}
		if op == OpRinp {
			out.Remote = RemoteInp
		} else {
			out.Remote = RemoteRdp
		}

	default:
		return fail(ErrUnknownOpcode)
	}

	a.PC = nextPC
	return out
}

func failf(op Op, format string, args ...any) Outcome {
	return Outcome{Effect: EffectError, Op: op, Err: fmt.Errorf(format, args...)}
}
