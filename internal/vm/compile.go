package vm

import "sync"

// The pre-decoded backend. Compile decodes a verified program once, one
// inst record per instruction, and binds each record to its opcode's
// entry in semanticsTable: the state transition Step runs, written once
// in interp.go. A compiled step thus differs from Step only in skipping
// the per-step decode and dispatch, so every Outcome and every runtime
// error string is the interpreter's own. The interpreter remains the
// oracle: compile_test.go golden-diffs and fuzzes the two against each
// other instruction for instruction, which checks that pre-decoding
// matches per-step decoding.

// StepFn executes one compiled instruction: the exact equivalent of one
// Step call, writing the Outcome in place instead of returning it. out
// must be zero or hold an Outcome a step wrote: an EffectNone outcome
// sets nothing but Op and Cost, so only an effect's outcome is cleared.
type StepFn func(a *Agent, h Host, out *Outcome)

// Compiled is a verified program with every instruction pre-decoded. It
// is immutable after Compile and safe to share across agents, nodes, and
// executor shards.
//
// steps is indexed by program counter; only instruction boundaries have
// entries. A dynamic jump (jumps) or reaction entry may legally land
// between boundaries — the interpreter re-decodes from there, so StepAt
// returns nil and the engine falls back to Step, reproducing the exact
// misaligned-decode behavior.
//
// Whether the next instruction runs inside the same sim event is the
// engine's decision, made at every boundary from the Outcome's effect and
// the kernel's admission rule, so a jump is a boundary like any other.
type Compiled struct {
	steps []StepFn
}

// StepAt returns the compiled step for the instruction at pc, or nil
// when pc is not a compiled instruction boundary (past the end, or inside
// another instruction's operands).
func (c *Compiled) StepAt(pc uint16) StepFn {
	if int(pc) >= len(c.steps) {
		return nil
	}
	return c.steps[pc]
}

// Compile pre-decodes verified code. Code that fails verification is not
// compiled — the engine keeps interpreting it (and the agent dies at
// runtime exactly where the interpreter says it does). The result keeps
// no reference to code.
func Compile(code []byte) (*Compiled, error) {
	d, rep := verify(code)
	if err := rep.err(); err != nil {
		return nil, err
	}
	c := &Compiled{steps: make([]StepFn, len(code))}
	ins := make([]inst, len(d.Ins))
	for i, di := range d.Ins {
		in := &ins[i]
		_ = decode(code, uint16(di.PC), in) // Decode accepted this boundary
		sem := semanticsTable[in.op]
		c.steps[di.PC] = func(a *Agent, h Host, out *Outcome) {
			if out.Effect != EffectNone {
				*out = Outcome{} // the last step's effect fields must not leak into this one
			}
			out.Op, out.Cost = in.op, in.cost
			next, err := sem(in, a, h, out)
			if err != nil {
				in.fail(out, err)
			} else {
				a.PC = next
			}
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
	c, _ := Compile(code) // nil when code fails verification, cached as such
	cc.m[string(code)] = c
	return c
}
