package vm

import (
	"fmt"
	"sync"
	"time"

	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

// Compile-to-Go-closures backend. A verified program is lowered once into
// one native closure per instruction, with everything the interpreter
// re-derives on every Step hoisted to compile time: opcode dispatch, the
// metadata table lookup, operand decoding, immediate construction, and
// next-PC arithmetic. The closures reuse the Agent stack helpers, so
// every runtime error carries the exact string the interpreter produces —
// the engine's trace of a dying agent is byte-identical under either
// backend. The interpreter remains the oracle: compile_test.go golden-
// diffs and fuzzes the two against each other instruction for
// instruction.

// StepFn executes one compiled instruction: the exact equivalent of one
// Step call, writing the Outcome in place instead of returning it.
type StepFn func(a *Agent, h Host, out *Outcome)

// Compiled is a program lowered to native closures. It is immutable after
// Compile and safe to share across agents, nodes, and executor shards.
//
// steps is indexed by program counter; only instruction boundaries have
// entries. A dynamic jump (jumps) or reaction entry may legally land
// between boundaries — the interpreter re-decodes from there, so StepAt
// returns nil and the engine falls back to Step, reproducing the exact
// misaligned-decode behavior.
//
// run is the burst-plan table: run[pc] is the length of the maximal
// straight-line run starting at pc — consecutive instructions that fall
// through to the next boundary and never transfer control or suspend
// unconditionally. Blocking in/rd stay inside plans: the engine re-checks
// the Outcome's effect at every boundary, so a run simply ends early when
// one blocks. Plan breakers are halt, sleep, wait, every migration and
// remote op, and all jumps (even static ones — the engine's deferred
// step lane still batches across them, only the in-place fast path
// breaks).
type Compiled struct {
	steps []StepFn
	run   []uint16
}

// StepAt returns the compiled closure for the instruction at pc, or nil
// when pc is not a compiled instruction boundary (past the end, or inside
// another instruction's operands).
func (c *Compiled) StepAt(pc uint16) StepFn {
	if int(pc) >= len(c.steps) {
		return nil
	}
	return c.steps[pc]
}

// RunLen returns the burst-plan length at pc: how many consecutive
// instructions starting there provably fall through. 0 means pc is not a
// boundary or starts with a plan breaker.
func (c *Compiled) RunLen(pc uint16) int {
	if int(pc) >= len(c.run) {
		return 0
	}
	return int(c.run[pc])
}

// Compile lowers verified code to closures. Code that fails verification
// is not compiled — the engine keeps interpreting it (and the agent dies
// at runtime exactly where the interpreter says it does).
func Compile(code []byte) (*Compiled, error) {
	d, rep := verify(code)
	if err := rep.err(); err != nil {
		return nil, err
	}
	c := &Compiled{
		steps: make([]StepFn, len(code)),
		run:   make([]uint16, len(code)),
	}
	// Back to front, so a burst plan extends that of its fall-through
	// successor. Every flow class but flowNext breaks a plan: the
	// instruction unconditionally suspends the agent or may transfer
	// control away.
	for i := len(d.Ins) - 1; i >= 0; i-- {
		in := &d.Ins[i]
		c.steps[in.PC] = compileStep(in.Op, in.Info, in.PC, code)
		if in.Info.flow != flowNext {
			continue
		}
		c.run[in.PC] = 1
		if next := in.Next(); next < len(code) {
			c.run[in.PC] += c.run[next]
		}
	}
	return c, nil
}

// Cache memoizes Compile by code content. Compilation is a pure function
// of the bytes, so one process-wide cache is shared by every node: agents
// migrating between shards hit it concurrently, hence the lock. Programs
// that fail verification are cached as nil, so unverifiable code costs
// one Verify, not one per hop.
type Cache struct {
	mu sync.Mutex
	m  map[string]*Compiled
}

// NewCache returns an empty compile cache.
func NewCache() *Cache { return &Cache{m: make(map[string]*Compiled)} }

// Get returns the compiled form of code, compiling on first sight, or nil
// when the code does not verify.
func (cc *Cache) Get(code []byte) *Compiled {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if c, ok := cc.m[string(code)]; ok {
		return c
	}
	c, err := Compile(code)
	if err != nil {
		c = nil
	}
	cc.m[string(code)] = c
	return c
}

// compileStep builds the closure for one instruction. Each closure fully
// resets the Outcome (callers reuse one across steps), performs the exact
// state transition Step performs, and advances the PC the same way. The
// fail path reproduces Step's error wrapping: the "name at pc=N" prefix
// is precomputed, the dynamic cause is wrapped identically.
func compileStep(op Op, info Info, pc int, code []byte) StepFn {
	cost := info.Cost
	operands := code[pc+1 : pc+1+info.Operands]
	nextPC := uint16(pc + 1 + info.Operands)
	prefix := fmt.Sprintf("%s at pc=%d", info.Name, pc)
	fail := func(out *Outcome, err error) {
		out.Effect = EffectError
		out.Err = fmt.Errorf("%s: %w", prefix, err)
	}
	// begin resets the reused Outcome to this instruction's static parts.
	begin := func(out *Outcome) {
		*out = Outcome{Effect: EffectNone, Op: op, Cost: cost}
	}

	switch op {
	case OpHalt:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			out.Effect = EffectHalt
			// Leave the PC on the halt so a halted agent is identifiable.
		}

	case OpLoc:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			if err := a.Push(tuplespace.LocV(h.Loc())); err != nil {
				fail(out, err)
				return
			}
			a.PC = nextPC
		}
	case OpAid:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			if err := a.Push(tuplespace.AgentIDV(a.ID)); err != nil {
				fail(out, err)
				return
			}
			a.PC = nextPC
		}
	case OpRand:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			if err := a.Push(tuplespace.Int(h.RandInt16(32767))); err != nil {
				fail(out, err)
				return
			}
			a.PC = nextPC
		}
	case OpDup:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			v, err := a.Peek()
			if err != nil {
				fail(out, err)
				return
			}
			if err := a.Push(v); err != nil {
				fail(out, err)
				return
			}
			a.PC = nextPC
		}
	case OpPop:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			if _, err := a.Pop(); err != nil {
				fail(out, err)
				return
			}
			a.PC = nextPC
		}
	case OpSwap:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			x, err := a.Pop()
			if err != nil {
				fail(out, err)
				return
			}
			y, err := a.Pop()
			if err != nil {
				fail(out, err)
				return
			}
			if err := a.Push(x); err != nil {
				fail(out, err)
				return
			}
			if err := a.Push(y); err != nil {
				fail(out, err)
				return
			}
			a.PC = nextPC
		}

	case OpAdd, OpSub, OpAnd, OpOr:
		var bin func(t2, t1 int16) int16
		switch op {
		case OpAdd:
			bin = func(t2, t1 int16) int16 { return t2 + t1 }
		case OpSub:
			bin = func(t2, t1 int16) int16 { return t2 - t1 }
		case OpAnd:
			bin = func(t2, t1 int16) int16 { return t2 & t1 }
		case OpOr:
			bin = func(t2, t1 int16) int16 { return t2 | t1 }
		}
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			t1, err := a.PopInt()
			if err != nil {
				fail(out, err)
				return
			}
			t2, err := a.PopInt()
			if err != nil {
				fail(out, err)
				return
			}
			if err := a.Push(tuplespace.Int(bin(t2, t1))); err != nil {
				fail(out, err)
				return
			}
			a.PC = nextPC
		}
	case OpNot:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			t1, err := a.PopInt()
			if err != nil {
				fail(out, err)
				return
			}
			if err := a.Push(tuplespace.Int(^t1)); err != nil {
				fail(out, err)
				return
			}
			a.PC = nextPC
		}
	case OpInc:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			t1, err := a.PopInt()
			if err != nil {
				fail(out, err)
				return
			}
			if err := a.Push(tuplespace.Int(t1 + 1)); err != nil {
				fail(out, err)
				return
			}
			a.PC = nextPC
		}

	case OpCeq, OpCneq, OpClt, OpCgt, OpEq, OpNeq, OpLt, OpGt:
		// Comparisons measure the value beneath the top against the top
		// (see Step); the C* forms set the condition register, the plain
		// forms push the result.
		var cmp func(t2, t1 int16) bool
		switch op {
		case OpCeq, OpEq:
			cmp = func(t2, t1 int16) bool { return t2 == t1 }
		case OpCneq, OpNeq:
			cmp = func(t2, t1 int16) bool { return t2 != t1 }
		case OpClt, OpLt:
			cmp = func(t2, t1 int16) bool { return t1 < t2 }
		case OpCgt, OpGt:
			cmp = func(t2, t1 int16) bool { return t1 > t2 }
		}
		toCond := op == OpCeq || op == OpCneq || op == OpClt || op == OpCgt
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			t1, err := a.PopInt()
			if err != nil {
				fail(out, err)
				return
			}
			t2, err := a.PopInt()
			if err != nil {
				fail(out, err)
				return
			}
			c := cmp(t2, t1)
			if toCond {
				a.Condition = 0
				if c {
					a.Condition = 1
				}
			} else {
				r := int16(0)
				if c {
					r = 1
				}
				if err := a.Push(tuplespace.Int(r)); err != nil {
					fail(out, err)
					return
				}
			}
			a.PC = nextPC
		}

	case OpJumps:
		codeLen := len(code)
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			addr, err := a.PopInt()
			if err != nil {
				fail(out, err)
				return
			}
			if addr < 0 || int(addr) >= codeLen {
				fail(out, fmt.Errorf("%w: jump target %d", ErrBadPC, addr))
				return
			}
			a.PC = uint16(addr)
		}
	case OpRjump:
		tgt := uint16(pc) + uint16(int16(int8(operands[0])))
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			a.PC = tgt
		}
	case OpRjumpc:
		tgt := uint16(pc) + uint16(int16(int8(operands[0])))
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			if a.Condition != 0 {
				a.PC = tgt
			} else {
				a.PC = nextPC
			}
		}

	case OpGetvar, OpSetvar:
		idx := int(operands[0])
		if idx >= HeapSlots {
			// Verify rejects this statically, but a direct Compile call
			// must still die exactly where the interpreter does.
			badAddr := fmt.Errorf("%w: %d", ErrBadHeapAddr, idx)
			return func(a *Agent, h Host, out *Outcome) {
				begin(out)
				fail(out, badAddr)
			}
		}
		if op == OpGetvar {
			return func(a *Agent, h Host, out *Outcome) {
				begin(out)
				if err := a.Push(a.Heap[idx]); err != nil {
					fail(out, err)
					return
				}
				a.PC = nextPC
			}
		}
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			v, err := a.Pop()
			if err != nil {
				fail(out, err)
				return
			}
			a.Heap[idx] = v
			a.PC = nextPC
		}

	case OpSleep:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			ticks, err := a.PopInt()
			if err != nil {
				fail(out, err)
				return
			}
			if ticks < 0 {
				ticks = 0
			}
			out.Effect = EffectSleep
			out.Sleep = time.Duration(ticks) * SleepTick
			a.PC = nextPC
		}
	case OpWait:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			out.Effect = EffectWait
			a.PC = nextPC
		}
	case OpPutled:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			v, err := a.PopInt()
			if err != nil {
				fail(out, err)
				return
			}
			h.SetLED(v)
			a.PC = nextPC
		}
	case OpSense:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			st, err := a.PopInt()
			if err != nil {
				fail(out, err)
				return
			}
			r, ok := h.Sense(tuplespace.SensorType(st))
			if !ok {
				a.Condition = 0
				r = 0
			} else {
				a.Condition = 1
			}
			if err := a.Push(tuplespace.Reading(tuplespace.SensorType(st), r)); err != nil {
				fail(out, err)
				return
			}
			a.PC = nextPC
		}

	case OpPushc, OpPushcl, OpPushn, OpPusht, OpPushrt, OpPushloc:
		// Immediates are constructed once here, not per execution.
		var v tuplespace.Value
		switch op {
		case OpPushc:
			v = tuplespace.Int(int16(operands[0]))
		case OpPushcl:
			v = tuplespace.Int(int16(uint16(operands[0])<<8 | uint16(operands[1])))
		case OpPushn:
			name := string(operands[:3])
			for len(name) > 0 && name[len(name)-1] == 0 {
				name = name[:len(name)-1]
			}
			v = tuplespace.Str(name)
		case OpPusht:
			v = tuplespace.TypeV(tuplespace.TypeCode(operands[0]))
		case OpPushrt:
			v = tuplespace.TypeV(tuplespace.TypeOfSensor(tuplespace.SensorType(operands[0])))
		case OpPushloc:
			v = tuplespace.LocV(topology.Loc(int16(int8(operands[0])), int16(int8(operands[1]))))
		}
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			if err := a.Push(v); err != nil {
				fail(out, err)
				return
			}
			a.PC = nextPC
		}

	case OpNumnbrs:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			if err := a.Push(tuplespace.Int(int16(h.NumNeighbors()))); err != nil {
				fail(out, err)
				return
			}
			a.PC = nextPC
		}
	case OpGetnbr:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			i, err := a.PopInt()
			if err != nil {
				fail(out, err)
				return
			}
			l, ok := h.Neighbor(int(i))
			a.Condition = 0
			if ok {
				a.Condition = 1
			}
			if err := a.Push(tuplespace.LocV(l)); err != nil {
				fail(out, err)
				return
			}
			a.PC = nextPC
		}
	case OpRandnbr:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			n := h.NumNeighbors()
			a.Condition = 0
			var l topology.Location
			if n > 0 {
				l, _ = h.Neighbor(int(h.RandInt16(int16(n))))
				a.Condition = 1
			}
			if err := a.Push(tuplespace.LocV(l)); err != nil {
				fail(out, err)
				return
			}
			a.PC = nextPC
		}

	case OpOut:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			fields, err := a.PopFields()
			if err != nil {
				fail(out, err)
				return
			}
			if err := h.TSOut(tuplespace.Tuple{Fields: fields}); err != nil {
				a.Condition = 0
			} else {
				a.Condition = 1
			}
			a.PC = nextPC
		}
	case OpInp, OpRdp:
		remove := op == OpInp
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			fields, err := a.PopFields()
			if err != nil {
				fail(out, err)
				return
			}
			p := tuplespace.Template{Fields: fields}
			var t tuplespace.Tuple
			var found bool
			if remove {
				t, found = h.TSInp(p)
			} else {
				t, found = h.TSRdp(p)
			}
			if !found {
				a.Condition = 0
				a.PC = nextPC
				return
			}
			a.Condition = 1
			if err := a.PushFields(t.Fields); err != nil {
				fail(out, err)
				return
			}
			a.PC = nextPC
		}
	case OpIn, OpRd:
		remove := op == OpIn
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			savedSP := a.snapshotSP()
			fields, err := a.PopFields()
			if err != nil {
				fail(out, err)
				return
			}
			p := tuplespace.Template{Fields: fields}
			var t tuplespace.Tuple
			var found bool
			if remove {
				t, found = h.TSInp(p)
			} else {
				t, found = h.TSRdp(p)
			}
			if !found {
				// Block: roll the operands back and retry this instruction
				// when a tuple arrives; the PC stays put.
				a.restoreSP(savedSP)
				out.Effect = EffectBlocked
				out.Block = p
				out.BlockRemove = remove
				return
			}
			a.Condition = 1
			if err := a.PushFields(t.Fields); err != nil {
				fail(out, err)
				return
			}
			a.PC = nextPC
		}
	case OpTcount:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			fields, err := a.PopFields()
			if err != nil {
				fail(out, err)
				return
			}
			n := h.TSCount(tuplespace.Template{Fields: fields})
			if err := a.Push(tuplespace.Int(int16(n))); err != nil {
				fail(out, err)
				return
			}
			a.PC = nextPC
		}

	case OpRegrxn:
		codeLen := len(code)
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			addr, err := a.PopInt()
			if err != nil {
				fail(out, err)
				return
			}
			if addr < 0 || int(addr) >= codeLen {
				fail(out, fmt.Errorf("%w: reaction address %d", ErrBadPC, addr))
				return
			}
			fields, err := a.PopFields()
			if err != nil {
				fail(out, err)
				return
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
			a.PC = nextPC
		}
	case OpDeregrxn:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			fields, err := a.PopFields()
			if err != nil {
				fail(out, err)
				return
			}
			if h.DeregisterReaction(a.ID, tuplespace.Template{Fields: fields}) {
				a.Condition = 1
			} else {
				a.Condition = 0
			}
			a.PC = nextPC
		}

	case OpSmove, OpWmove, OpSclone, OpWclone:
		var kind MigrateKind
		switch op {
		case OpSmove:
			kind = StrongMove
		case OpWmove:
			kind = WeakMove
		case OpSclone:
			kind = StrongClone
		case OpWclone:
			kind = WeakClone
		}
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			dest, err := a.PopLoc()
			if err != nil {
				fail(out, err)
				return
			}
			out.Effect = EffectMigrate
			out.Dest = dest.Loc()
			out.Migrate = kind
			a.PC = nextPC
		}

	case OpRout:
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			dest, err := a.PopLoc()
			if err != nil {
				fail(out, err)
				return
			}
			fields, err := a.PopFields()
			if err != nil {
				fail(out, err)
				return
			}
			out.Effect = EffectRemote
			out.Remote = RemoteOut
			out.Dest = dest.Loc()
			out.Tuple = tuplespace.Tuple{Fields: fields}
			a.PC = nextPC
		}
	case OpRinp, OpRrdp:
		kind := RemoteInp
		if op == OpRrdp {
			kind = RemoteRdp
		}
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			dest, err := a.PopLoc()
			if err != nil {
				fail(out, err)
				return
			}
			fields, err := a.PopFields()
			if err != nil {
				fail(out, err)
				return
			}
			out.Effect = EffectRemote
			out.Remote = kind
			out.Dest = dest.Loc()
			out.Template = tuplespace.Template{Fields: fields}
			a.PC = nextPC
		}

	default:
		unknown := ErrUnknownOpcode
		return func(a *Agent, h Host, out *Outcome) {
			begin(out)
			fail(out, unknown)
		}
	}
}
