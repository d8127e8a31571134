// Package vm implements the Agilla mobile-agent virtual machine (§3.3,
// §3.4 of the paper): a stack architecture with a 12-variable heap, an
// agent-ID / program-counter / condition-code register set, and an
// instruction set divided into general-purpose, tuple space, and migration
// instructions.
//
// The interpreter executes exactly one instruction per call to Step,
// mirroring the original's one-TinyOS-task-per-instruction execution model.
// Long-running instructions (sleep, wait, blocking tuple ops, migration,
// remote tuple space operations) do not complete inside Step; they return
// an Outcome describing the effect, and the Agilla engine (internal/core)
// carries it out.
//
// Each instruction's state transition is written once (interp.go). Step
// decodes the instruction at the PC and runs it; Compile decodes a
// verified program once and binds every instruction to the same
// transition, so the compiled path skips only the per-step decode.
package vm

import (
	"fmt"
	"time"
)

// Op is an instruction opcode. Opcodes given in Figure 7 of the paper are
// used verbatim (loc 0x01, wait 0x0b, smove 0x1a, wclone 0x1d, getnbr 0x20,
// out 0x33, inp 0x34, rd 0x37, rout 0x39, rinp 0x3a, regrxn 0x3e); the
// remainder fill consistent gaps.
type Op byte

// General-purpose instructions.
const (
	OpHalt   Op = 0x00
	OpLoc    Op = 0x01
	OpAid    Op = 0x02
	OpRand   Op = 0x03
	OpDup    Op = 0x04
	OpPop    Op = 0x05
	OpSwap   Op = 0x06
	OpAdd    Op = 0x07
	OpSub    Op = 0x08
	OpAnd    Op = 0x09
	OpOr     Op = 0x0a
	OpWait   Op = 0x0b
	OpNot    Op = 0x0c
	OpSleep  Op = 0x0d
	OpPutled Op = 0x0e
	OpSense  Op = 0x0f
	OpCeq    Op = 0x10
	OpCneq   Op = 0x11
	OpClt    Op = 0x12
	OpCgt    Op = 0x13
	OpJumps  Op = 0x14
	OpRjump  Op = 0x15
	OpRjumpc Op = 0x16
	OpGetvar Op = 0x17
	OpSetvar Op = 0x18
	OpInc    Op = 0x19
)

// Migration instructions (§2.2): first letter selects weak/strong.
const (
	OpSmove  Op = 0x1a
	OpWmove  Op = 0x1b
	OpSclone Op = 0x1c
	OpWclone Op = 0x1d
)

// Neighbor-list instructions served by the context manager (§3.2).
const (
	OpGetnbr  Op = 0x20
	OpNumnbrs Op = 0x21
	OpRandnbr Op = 0x22
)

// Comparison instructions that push a boolean result.
const (
	OpEq  Op = 0x23
	OpNeq Op = 0x24
	OpLt  Op = 0x25
	OpGt  Op = 0x26
)

// Push instructions. These are the paper's "few exceptions" that consume
// more than one byte.
const (
	OpPushc   Op = 0x28 // 1-byte unsigned immediate
	OpPushcl  Op = 0x29 // 2-byte signed immediate ("push constant long")
	OpPushn   Op = 0x2a // 3-byte name ("fir")
	OpPusht   Op = 0x2b // 1-byte type code
	OpPushrt  Op = 0x2c // 1-byte sensor type -> reading-type wildcard
	OpPushloc Op = 0x2d // 2 × 1-byte signed coordinates
)

// Tuple space instructions (§3.4).
const (
	OpTcount   Op = 0x30
	OpOut      Op = 0x33
	OpInp      Op = 0x34
	OpRdp      Op = 0x35
	OpIn       Op = 0x36
	OpRd       Op = 0x37
	OpRout     Op = 0x39
	OpRinp     Op = 0x3a
	OpRrdp     Op = 0x3b
	OpRegrxn   Op = 0x3e
	OpDeregrxn Op = 0x3f
)

// OperandKind classifies an instruction's immediate operand bytes. It
// drives encoding (internal/asm, the program builder), decoding
// (Disassemble), and the static verifier, so all of them agree on one
// table.
type OperandKind uint8

// Operand kinds.
const (
	// OperandNone: no immediate operand.
	OperandNone OperandKind = iota
	// OperandU8: one unsigned immediate byte (pushc).
	OperandU8
	// OperandS16: a two-byte big-endian signed immediate (pushcl). Also
	// how absolute code addresses reach the stack for regrxn and jumps.
	OperandS16
	// OperandName3: a three-byte zero-padded string name (pushn).
	OperandName3
	// OperandType: one tuple type-code byte (pusht).
	OperandType
	// OperandSensor: one sensor-type byte (pushrt).
	OperandSensor
	// OperandLoc: two signed coordinate bytes (pushloc).
	OperandLoc
	// OperandRel: one signed byte, a jump offset relative to the
	// instruction's own address (rjump, rjumpc).
	OperandRel
	// OperandHeap: one heap slot index byte (getvar, setvar).
	OperandHeap
)

// Bytes returns the number of operand bytes the kind occupies.
func (k OperandKind) Bytes() int {
	switch k {
	case OperandNone:
		return 0
	case OperandS16, OperandLoc:
		return 2
	case OperandName3:
		return 3
	default:
		return 1
	}
}

// kmask is a set of the kinds an operand stack slot or heap variable may
// hold: the vocabulary of the pops/pushes columns below and of the
// analyzer's abstract state (analyze.go).
type kmask uint16

const (
	kNum     kmask = 1 << iota // KindValue
	kStr                       // KindString
	kLoc                       // KindLocation
	kType                      // KindType
	kReading                   // KindReading
	kAgentID                   // KindAgentID
	kInvalid                   // the zero Value of an unwritten heap slot
)

const (
	kAny kmask = kNum | kStr | kLoc | kType | kReading | kAgentID | kInvalid
	// kInt is what PopInt coerces: plain values, type codes, readings,
	// and agent IDs.
	kInt kmask = kNum | kType | kReading | kAgentID
)

var kmaskNames = [...]string{"value", "string", "location", "type", "reading", "agent-id", "invalid"}

func (m kmask) String() string {
	s := ""
	for i, name := range kmaskNames {
		if m&(1<<i) != 0 {
			if s != "" {
				s += "|"
			}
			s += name
		}
	}
	if s == "" {
		return "none"
	}
	return s
}

// operand is one fixed stack operand an instruction pops: the kinds the
// interpreter accepts there (PopInt's coercions, PopLoc, or anything)
// and the role the analyzer names in a type-mismatch finding.
type operand struct {
	mask kmask
	what string
}

var (
	anyArg   = operand{kAny, "value"}
	intArg   = operand{kInt, "integer"}
	destArg  = operand{kLoc, "destination"}
	entryArg = operand{kInt, "entry address"}
	countArg = operand{kInt, "field count"} // what VarIn pops beneath the fixed operands
)

// flow classifies where control goes when an instruction completes.
type flow uint8

const (
	// flowNext: continues at the next instruction (a blocking in/rd
	// only on a hit; a miss retries it).
	flowNext flow = iota
	// flowBranch: jumps or continues (rjumpc).
	flowBranch
	// flowJump: always transfers control (rjump, jumps).
	flowJump
	// flowYield: suspends the agent, which later resumes at the next
	// instruction (sleep, the migrations, the remote operations).
	flowYield
	// flowStop: no continuation (halt; wait, whose only way on is a
	// reaction entry).
	flowStop
)

// blocksOnMiss reports the two flowNext instructions that suspend the
// agent instead of completing when no tuple matches, to be retried.
func (op Op) blocksOnMiss() bool { return op == OpIn || op == OpRd }

// falls reports whether the next instruction is a successor.
func (f flow) falls() bool { return f != flowJump && f != flowStop }

// yields reports whether the instruction ends a wakeful burst.
func (f flow) yields() bool { return f == flowYield || f == flowStop }

// Info is one row of the ISA table: everything static about an
// instruction, stated once. Its columns and their readers:
//
//   - Name: the assembler, the disassembler, every diagnostic.
//   - Kind (and Operands, derived): encoding in internal/asm and the
//     program builder, decoding in Decode and decode.
//   - pops, pushes (and In, Out, derived), VarIn, VarOut: the stack
//     effect. Verify's depth intervals read the counts through
//     stackInterval; Analyze's kind transfer and type checks read the
//     kinds. A written-out case exists in Analyze only where the effect
//     depends on data the row cannot hold (dup, swap, getvar/setvar, the
//     pushc/pushcl constants, the tuple family's counted fields).
//   - flow: Decode's successor edges (Decoded.Succ), Analyze's burst
//     cuts.
//   - Cost: decode, for Step and Compile (the modelled latency).
//
// The pops/pushes/flow columns are not trusted: TestISATableConsistency
// checks each against what Step does.
type Info struct {
	Name string
	// Kind classifies the immediate operand bytes.
	Kind OperandKind
	// Operands is the number of operand bytes following the opcode
	// (always Kind.Bytes(); kept as a field for convenience).
	Operands int

	// pops lists the fixed stack operands, top of stack first; pushes
	// the kinds of the fixed results, in push order. In and Out are
	// their lengths. Variable-length tuple traffic is flagged
	// separately: VarIn means the instruction additionally pops a field
	// count plus that many fields (out, inp, rout, regrxn, ...); VarOut
	// means it may push a matched tuple's fields plus their count (inp,
	// rdp, in, rd, and the remote reads on reply delivery).
	pops          []operand
	pushes        []kmask
	In, Out       int
	VarIn, VarOut bool

	flow flow

	// Cost is the modelled local execution latency on the 8 MHz mote.
	// Values are calibrated to Figure 12: ≈75 µs for plain pushes and
	// register queries, ≈150 µs for instructions with extra memory
	// accesses or computation, ≈292 µs average for tuple space
	// operations, with in > rd > non-blocking probes.
	Cost time.Duration
}

// Size is the encoded size of the instruction in bytes.
func (i Info) Size() int { return 1 + i.Operands }

// StackInMin returns the fewest stack slots the instruction pops on any
// execution (a VarIn instruction pops at least the field count).
func (i Info) StackInMin() int {
	if i.VarIn {
		return i.In + 1
	}
	return i.In
}

// stackInterval is the one statement of how an instruction moves the
// interval [lo, hi] of possible stack depths: it pops its fixed operands
// (plus, if VarIn, the count and up to a stack's worth of fields) and
// pushes its fixed results (plus, if VarOut, up to a stack's worth on a
// hit). under means every path underflows. Otherwise the result is
// unclamped: outLo above StackDepth is a guaranteed overflow, outHi above
// it a possible one.
func stackInterval(i Info, lo, hi int) (outLo, outHi int, under bool) {
	popMin, popMax, pushMax := i.StackInMin(), i.StackInMin(), i.Out
	if i.VarIn {
		popMax += StackDepth
	}
	if i.VarOut {
		pushMax += StackDepth
	}
	if hi < popMin {
		return 0, 0, true
	}
	return max(0, lo-popMax) + i.Out, hi - popMin + pushMax, false
}

const us = time.Microsecond

// The operand and result lists most rows share.
var (
	popInt   = []operand{intArg}
	popInt2  = []operand{intArg, intArg}
	popAny   = []operand{anyArg}
	popDest  = []operand{destArg}
	pushNum  = []kmask{kNum}
	pushLoc  = []kmask{kLoc}
	pushType = []kmask{kType}
)

// infoTable is indexed by opcode; a row with no Name is an undefined
// opcode.
var infoTable = [256]Info{
	OpHalt:   {Name: "halt", flow: flowStop, Cost: 60 * us},
	OpLoc:    {Name: "loc", pushes: pushLoc, Cost: 74 * us},
	OpAid:    {Name: "aid", pushes: []kmask{kAgentID}, Cost: 72 * us},
	OpRand:   {Name: "rand", pushes: pushNum, Cost: 112 * us},
	OpDup:    {Name: "dup", pops: popAny, pushes: []kmask{kAny, kAny}, Cost: 70 * us},
	OpPop:    {Name: "pop", pops: popAny, Cost: 66 * us},
	OpSwap:   {Name: "swap", pops: []operand{anyArg, anyArg}, pushes: []kmask{kAny, kAny}, Cost: 72 * us},
	OpAdd:    {Name: "add", pops: popInt2, pushes: pushNum, Cost: 78 * us},
	OpSub:    {Name: "sub", pops: popInt2, pushes: pushNum, Cost: 78 * us},
	OpAnd:    {Name: "and", pops: popInt2, pushes: pushNum, Cost: 75 * us},
	OpOr:     {Name: "or", pops: popInt2, pushes: pushNum, Cost: 75 * us},
	OpWait:   {Name: "wait", flow: flowStop, Cost: 80 * us},
	OpNot:    {Name: "not", pops: popInt, pushes: pushNum, Cost: 73 * us},
	OpSleep:  {Name: "sleep", pops: popInt, flow: flowYield, Cost: 90 * us},
	OpPutled: {Name: "putled", pops: popInt, Cost: 85 * us},
	OpSense:  {Name: "sense", pops: popInt, pushes: []kmask{kReading}, Cost: 232 * us},
	OpCeq:    {Name: "ceq", pops: popInt2, Cost: 82 * us},
	OpCneq:   {Name: "cneq", pops: popInt2, Cost: 82 * us},
	OpClt:    {Name: "clt", pops: popInt2, Cost: 82 * us},
	OpCgt:    {Name: "cgt", pops: popInt2, Cost: 82 * us},
	OpJumps:  {Name: "jumps", pops: popInt, flow: flowJump, Cost: 86 * us},
	OpRjump:  {Name: "rjump", Kind: OperandRel, flow: flowJump, Cost: 84 * us},
	OpRjumpc: {Name: "rjumpc", Kind: OperandRel, flow: flowBranch, Cost: 85 * us},
	OpGetvar: {Name: "getvar", Kind: OperandHeap, pushes: []kmask{kAny}, Cost: 96 * us},
	OpSetvar: {Name: "setvar", Kind: OperandHeap, pops: popAny, Cost: 98 * us},
	OpInc:    {Name: "inc", pops: popInt, pushes: pushNum, Cost: 70 * us},

	OpSmove:  {Name: "smove", pops: popDest, flow: flowYield, Cost: 210 * us},
	OpWmove:  {Name: "wmove", pops: popDest, flow: flowYield, Cost: 205 * us},
	OpSclone: {Name: "sclone", pops: popDest, flow: flowYield, Cost: 212 * us},
	OpWclone: {Name: "wclone", pops: popDest, flow: flowYield, Cost: 206 * us},

	OpGetnbr:  {Name: "getnbr", pops: popInt, pushes: pushLoc, Cost: 155 * us},
	OpNumnbrs: {Name: "numnbrs", pushes: pushNum, Cost: 78 * us},
	OpRandnbr: {Name: "randnbr", pushes: pushLoc, Cost: 148 * us},

	OpEq:  {Name: "eq", pops: popInt2, pushes: pushNum, Cost: 81 * us},
	OpNeq: {Name: "neq", pops: popInt2, pushes: pushNum, Cost: 81 * us},
	OpLt:  {Name: "lt", pops: popInt2, pushes: pushNum, Cost: 81 * us},
	OpGt:  {Name: "gt", pops: popInt2, pushes: pushNum, Cost: 81 * us},

	OpPushc:   {Name: "pushc", Kind: OperandU8, pushes: pushNum, Cost: 76 * us},
	OpPushcl:  {Name: "pushcl", Kind: OperandS16, pushes: pushNum, Cost: 141 * us},
	OpPushn:   {Name: "pushn", Kind: OperandName3, pushes: []kmask{kStr}, Cost: 152 * us},
	OpPusht:   {Name: "pusht", Kind: OperandType, pushes: pushType, Cost: 136 * us},
	OpPushrt:  {Name: "pushrt", Kind: OperandSensor, pushes: pushType, Cost: 132 * us},
	OpPushloc: {Name: "pushloc", Kind: OperandLoc, pushes: pushLoc, Cost: 158 * us},

	OpTcount:   {Name: "tcount", VarIn: true, pushes: pushNum, Cost: 312 * us},
	OpOut:      {Name: "out", VarIn: true, Cost: 286 * us},
	OpInp:      {Name: "inp", VarIn: true, VarOut: true, Cost: 271 * us},
	OpRdp:      {Name: "rdp", VarIn: true, VarOut: true, Cost: 263 * us},
	OpIn:       {Name: "in", VarIn: true, VarOut: true, Cost: 301 * us},
	OpRd:       {Name: "rd", VarIn: true, VarOut: true, Cost: 291 * us},
	OpRout:     {Name: "rout", pops: popDest, VarIn: true, flow: flowYield, Cost: 250 * us},
	OpRinp:     {Name: "rinp", pops: popDest, VarIn: true, VarOut: true, flow: flowYield, Cost: 252 * us},
	OpRrdp:     {Name: "rrdp", pops: popDest, VarIn: true, VarOut: true, flow: flowYield, Cost: 251 * us},
	OpRegrxn:   {Name: "regrxn", pops: []operand{entryArg}, VarIn: true, Cost: 181 * us},
	OpDeregrxn: {Name: "deregrxn", VarIn: true, Cost: 173 * us},
}

func init() {
	for op := range infoTable {
		info := &infoTable[op]
		info.Operands = info.Kind.Bytes()
		info.In, info.Out = len(info.pops), len(info.pushes)
	}
}

var nameToOp = func() map[string]Op {
	m := make(map[string]Op)
	for _, op := range Ops() {
		m[infoTable[op].Name] = op
	}
	return m
}()

// Lookup returns the instruction metadata for op.
func Lookup(op Op) (Info, bool) {
	return infoTable[op], infoTable[op].Name != ""
}

// ByName returns the opcode for a mnemonic.
func ByName(name string) (Op, bool) {
	op, ok := nameToOp[name]
	return op, ok
}

// Ops returns all defined opcodes in ascending order (useful for
// exhaustive tests and the Figure 12 sweep).
func Ops() []Op {
	var out []Op
	for op := range infoTable {
		if infoTable[op].Name != "" {
			out = append(out, Op(op))
		}
	}
	return out
}

// Size returns the encoded size in bytes of the instruction starting at
// code[pc], or an error for an unknown opcode or truncated operands.
func Size(code []byte, pc int) (int, error) {
	if pc >= len(code) {
		return 0, fmt.Errorf("vm: pc %d out of range (code %d bytes)", pc, len(code))
	}
	info := &infoTable[code[pc]]
	if info.Name == "" {
		return 0, fmt.Errorf("vm: unknown opcode 0x%02x at pc %d", code[pc], pc)
	}
	if pc+info.Size() > len(code) {
		return 0, fmt.Errorf("vm: truncated operands for %s at pc %d", info.Name, pc)
	}
	return info.Size(), nil
}

func (op Op) String() string {
	if name := infoTable[op].Name; name != "" {
		return name
	}
	return fmt.Sprintf("op(0x%02x)", byte(op))
}
