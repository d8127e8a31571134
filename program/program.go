// Package program is the public authoring surface for Agilla agents: the
// typed way to build, check, inspect, and ship the stack-machine programs
// that Network.Launch injects into a deployment.
//
// The paper's core contribution (§3.3–§3.4, Figure 7) is the agent
// language itself — a stack ISA with tuple-space and migration
// instructions. This package exposes all three authoring forms and makes
// them converge on one verified Program value:
//
//   - New builds a Program instruction by instruction through a fluent,
//     typed Builder with high-level combinators (If, Loop,
//     ForEachNeighbor, React).
//   - Parse assembles the textual dialect of Figures 2, 8, and 13.
//   - FromBytes adopts raw bytecode (a received migration payload, a file
//     written by `agilla asm`).
//
// New and Parse are two front-ends of the one assembler in internal/asm
// (asm.List.Link lays out, resolves, range-checks and encodes), so a
// defect reads the same through both; every form runs the shared static
// verifier (internal/vm.Verify): jump-target bounds, heap-index ranges,
// and a worst-case stack-depth analysis. Every error carries a position
// in its form's style — source line, builder step and nearest label, or
// program counter. A Program that exists has passed verification.
//
// Library returns the paper's canonical agents (Figures 2, 8, 13) as
// ready-made entries, each built with the Builder and byte-identical to
// its assembly listing.
package program

import (
	"errors"
	"fmt"
	"sort"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
)

// Location is a node address (alias of the network-wide location type).
type Location = topology.Location

// Value is one typed datum: a tuple field or a VM stack slot.
type Value = tuplespace.Value

// Template matches tuples by per-field equality with type wildcards.
type Template = tuplespace.Template

// ErrVerify is wrapped by every static-verification failure, whichever
// authoring form produced it.
var ErrVerify = errors.New("program: verification failed")

// Program is a verified, immutable agent program. The zero value is not
// useful; obtain one from a Builder, Parse, FromBytes, or Library.
type Program struct {
	name   string
	source string
	// unit is the linked program: the bytes, the verifier's report, and
	// — for parsed and built programs — the statement behind each
	// instruction, the one table positions are rendered from.
	unit asm.Linked
}

// pos renders the authoring position of the instruction at pc the way
// its front-end positions link errors ("line 12" for parsed programs,
// "step 3 (out) after label L" for built ones), falling back to the raw
// program counter for byte-loaded programs.
func (p *Program) pos(pc int) string {
	i := sort.SearchInts(p.unit.PCs, pc)
	switch {
	case i == len(p.unit.PCs) || p.unit.PCs[i] != pc:
		return fmt.Sprintf("pc=%d", pc)
	case p.source != "":
		return fmt.Sprintf("line %d", p.unit.Stmts[i].Line)
	}
	return stepPos(p.unit.Stmts, i)
}

// Parse assembles Agilla assembly source (the dialect of the paper's
// Figures 2, 8, and 13) and verifies it. Errors carry the source line
// and offending token.
func Parse(src string) (*Program, error) {
	unit, err := asm.AssembleSource(src)
	if err != nil {
		return nil, err
	}
	return &Program{source: src, unit: unit}, nil
}

// MustParse is Parse, panicking on error; for hard-coded programs.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// FromBytes verifies raw bytecode and wraps it as a Program. Errors are
// positioned by program counter.
func FromBytes(code []byte) (*Program, error) {
	rep, err := vm.Verify(code)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrVerify, err)
	}
	return &Program{unit: asm.Linked{Code: append([]byte(nil), code...), Report: rep}}, nil
}

// Disassemble renders bytecode as assembly text without constructing a
// Program; it fails only if the bytes do not decode.
func Disassemble(code []byte) (string, error) { return asm.Disassemble(code) }

// WithName returns a copy of the program carrying a diagnostic name.
func (p *Program) WithName(name string) *Program {
	q := *p
	q.name = name
	return &q
}

// Name returns the diagnostic name, or "" if none was set.
func (p *Program) Name() string { return p.name }

// Bytes returns a copy of the program's bytecode — the exact bytes a
// migrating agent carries.
func (p *Program) Bytes() []byte { return append([]byte(nil), p.unit.Code...) }

// Len returns the encoded size in bytes (what counts against a mote's
// instruction memory).
func (p *Program) Len() int { return len(p.unit.Code) }

// Instructions returns the instruction count.
func (p *Program) Instructions() int { return p.unit.Report.Instructions }

// MaxStackDepth returns the verifier's worst-case operand stack depth
// bound (capped at the architectural limit).
func (p *Program) MaxStackDepth() int { return p.unit.Report.MaxStackDepth }

// Source returns the assembly source the program was parsed from, or ""
// for built or byte-loaded programs (use Disassemble for a listing).
func (p *Program) Source() string { return p.source }

// Disassemble renders the program as assembly text, one instruction per
// line with byte addresses; the text reassembles to identical bytes.
func (p *Program) Disassemble() string {
	text, err := asm.Disassemble(p.unit.Code)
	if err != nil {
		// Unreachable: a Program's bytes decoded during verification.
		return fmt.Sprintf("// disassembly failed: %v", err)
	}
	return text
}

func (p *Program) String() string {
	name := p.name
	if name == "" {
		name = "program"
	}
	return fmt.Sprintf("%s (%d bytes, %d instructions, stack ≤%d)",
		name, len(p.unit.Code), p.unit.Report.Instructions, p.unit.Report.MaxStackDepth)
}
