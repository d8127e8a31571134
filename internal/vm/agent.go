package vm

import (
	"errors"
	"fmt"

	"github.com/agilla-go/agilla/internal/tuplespace"
)

// Architectural limits from Figure 6 of the paper: a 16-entry operand
// stack and a 12-variable heap.
const (
	StackDepth = 16
	HeapSlots  = 12
)

// Sentinel errors; an agent that trips one dies with that error.
var (
	ErrStackOverflow  = errors.New("vm: stack overflow")
	ErrStackUnderflow = errors.New("vm: stack underflow")
	ErrTypeMismatch   = errors.New("vm: type mismatch")
	ErrBadHeapAddr    = errors.New("vm: heap address out of range")
	ErrBadPC          = errors.New("vm: program counter out of range")
	ErrUnknownOpcode  = errors.New("vm: unknown opcode")
)

// Agent is the architectural state of one mobile agent (Figure 6): code,
// operand stack, heap, and the ID/PC/condition registers. Everything here
// is exactly what migrates when the agent moves; middleware bookkeeping
// lives in internal/core.
type Agent struct {
	// ID is unique per agent and preserved across moves; clones get a
	// fresh ID (§3.3).
	ID uint16
	// PC is the byte address of the next instruction.
	PC uint16
	// Condition records execution status: comparison results, the
	// success/failure of migrations and remote operations.
	Condition int16

	stack [StackDepth]tuplespace.Value
	sp    int // number of live stack entries

	// Heap is random-access storage for up to 12 variables, accessed by
	// getvar/setvar.
	Heap [HeapSlots]tuplespace.Value

	// Code is the agent's program.
	Code []byte
}

// NewAgent creates an agent with the given ID and program.
func NewAgent(id uint16, code []byte) *Agent {
	return &Agent{ID: id, Code: code}
}

// Reset clears all execution state but keeps ID and code. This implements
// the weak half of weak migration: "only the code is transferred. The
// program counter, heap, and stack are reset" (§2.2).
func (a *Agent) Reset() {
	a.PC = 0
	a.Condition = 0
	a.sp = 0
	for i := range a.stack {
		a.stack[i] = tuplespace.Value{}
	}
	for i := range a.Heap {
		a.Heap[i] = tuplespace.Value{}
	}
}

// CloneInto makes c a deep copy of the agent with the given new ID,
// copying the code into c's own buffer.
func (a *Agent) CloneInto(c *Agent, newID uint16) {
	code := append(c.Code[:0], a.Code...)
	*c = *a
	c.ID, c.Code = newID, code
}

// StackDepthUsed returns the number of live stack entries.
func (a *Agent) StackDepthUsed() int { return a.sp }

// StackSlice returns the live stack, bottom first. It is a view of the
// agent's own slots, valid until the agent next runs; the migration
// packager copies it out.
func (a *Agent) StackSlice() []tuplespace.Value { return a.stack[:a.sp] }

// SetStack replaces the stack contents, bottom first. Used by the
// migration unpacker.
func (a *Agent) SetStack(vs []tuplespace.Value) error {
	if len(vs) > StackDepth {
		return fmt.Errorf("%w: restoring %d entries", ErrStackOverflow, len(vs))
	}
	a.sp = copy(a.stack[:], vs)
	for i := a.sp; i < StackDepth; i++ {
		a.stack[i] = tuplespace.Value{}
	}
	return nil
}

// Push pushes v, failing on overflow.
func (a *Agent) Push(v tuplespace.Value) error {
	if a.sp >= StackDepth {
		return ErrStackOverflow
	}
	a.stack[a.sp] = v
	a.sp++
	return nil
}

// Pop removes and returns the top of stack.
func (a *Agent) Pop() (tuplespace.Value, error) {
	if a.sp == 0 {
		return tuplespace.Value{}, ErrStackUnderflow
	}
	a.sp--
	return a.stack[a.sp], nil
}

// Peek returns the top of stack without removing it.
func (a *Agent) Peek() (tuplespace.Value, error) {
	if a.sp == 0 {
		return tuplespace.Value{}, ErrStackUnderflow
	}
	return a.stack[a.sp-1], nil
}

// PopInt pops a value coercible to a 16-bit integer: plain values, sensor
// readings (their reading), agent IDs, and type codes.
func (a *Agent) PopInt() (int16, error) {
	v, err := a.Pop()
	if err != nil {
		return 0, err
	}
	switch v.Kind {
	case tuplespace.KindValue, tuplespace.KindAgentID, tuplespace.KindType:
		return v.A, nil
	case tuplespace.KindReading:
		return v.B, nil
	default:
		return 0, fmt.Errorf("%w: %v is not an integer", ErrTypeMismatch, v)
	}
}

// PopLoc pops a location value.
func (a *Agent) PopLoc() (tuplespace.Value, error) {
	v, err := a.Pop()
	if err != nil {
		return tuplespace.Value{}, err
	}
	if v.Kind != tuplespace.KindLocation {
		return tuplespace.Value{}, fmt.Errorf("%w: %v is not a location", ErrTypeMismatch, v)
	}
	return v, nil
}

// PopFields pops a field-count integer and then that many fields into
// buf, used by the tuple and template instructions, and returns them as a
// view of buf. Fields are in push order (the first field pushed is field
// 0), matching Figures 2, 8, and 13. The count is at most the stack
// depth, so buf always has room.
func (a *Agent) PopFields(buf *[StackDepth]tuplespace.Value) ([]tuplespace.Value, error) {
	n, err := a.PopInt()
	if err != nil {
		return nil, err
	}
	if n < 0 || int(n) > a.sp {
		return nil, fmt.Errorf("%w: field count %d with stack depth %d", ErrStackUnderflow, n, a.sp)
	}
	a.sp -= int(n)
	return buf[:copy(buf[:], a.stack[a.sp:a.sp+int(n)])], nil
}

// PushFields pushes fields in order followed by the count, the inverse of
// PopFields. Remote read results arrive on the stack this way so the agent
// can PopFields them again.
func (a *Agent) PushFields(fields []tuplespace.Value) error {
	for _, f := range fields {
		if err := a.Push(f); err != nil {
			return err
		}
	}
	return a.Push(tuplespace.Int(int16(len(fields))))
}

// snapshotSP and restoreSP support blocking instructions: when in/rd finds
// no match the instruction must appear not to have executed, so the
// operand stack is rolled back and the PC is left pointing at the
// instruction for a later retry.
func (a *Agent) snapshotSP() int { return a.sp }

func (a *Agent) restoreSP(sp int) { a.sp = sp }
