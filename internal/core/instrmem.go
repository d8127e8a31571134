package core

import (
	"errors"
	"fmt"

	"github.com/agilla-go/agilla/internal/wire"
)

// ErrNoInstrMem is returned when an agent's code does not fit in the
// remaining instruction-memory blocks.
var ErrNoInstrMem = errors.New("core: out of instruction memory")

// InstrMem is the instruction manager's block allocator (§3.2): since
// TinyOS has no dynamic memory allocation, Agilla implements its own,
// handing out the minimum number of 22-byte blocks needed for an agent's
// code. "We found that 22 byte blocks are a good compromise between
// internal fragmentation and undue forward pointer overhead."
//
// The zero value is not usable; construct with NewInstrMem or Init.
type InstrMem struct {
	totalBlocks int
	usedBlocks  int
	// byAgent is what each agent holds, in ascending ID order: at most
	// MaxAgents entries, so a search is a few comparisons.
	byAgent []codeAlloc
}

// codeAlloc is one agent's share of instruction memory.
type codeAlloc struct {
	agentID uint16
	blocks  uint16
}

// NewInstrMem creates an allocator with the given block budget;
// non-positive selects the paper's 20-block default.
func NewInstrMem(blocks int) *InstrMem {
	m := new(InstrMem)
	m.Init(blocks)
	return m
}

// Init makes m an empty allocator with the given block budget, for owners
// that hold an InstrMem by value; it also serves to wipe one.
func (m *InstrMem) Init(blocks int) {
	if blocks <= 0 {
		blocks = DefaultCodeBlocks
	}
	*m = InstrMem{totalBlocks: blocks}
}

// index returns the position of agentID's allocation, or where it would
// be inserted.
func (m *InstrMem) index(agentID uint16) (int, bool) {
	i := 0
	for i < len(m.byAgent) && m.byAgent[i].agentID < agentID {
		i++
	}
	return i, i < len(m.byAgent) && m.byAgent[i].agentID == agentID
}

// BlocksFor returns how many 22-byte blocks a program of n bytes needs.
func BlocksFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + wire.CodeBlockSize - 1) / wire.CodeBlockSize
}

// TotalBlocks returns the block budget.
func (m *InstrMem) TotalBlocks() int { return m.totalBlocks }

// FreeBlocks returns the unallocated block count.
func (m *InstrMem) FreeBlocks() int { return m.totalBlocks - m.usedBlocks }

// UsedBytes returns the bytes charged (whole blocks).
func (m *InstrMem) UsedBytes() int { return m.usedBlocks * wire.CodeBlockSize }

// CapBytes returns the budget in bytes (440 by default).
func (m *InstrMem) CapBytes() int { return m.totalBlocks * wire.CodeBlockSize }

// Alloc charges the blocks for an agent's code. Allocating twice for the
// same agent is a programming error and fails.
func (m *InstrMem) Alloc(agentID uint16, codeLen int) error {
	i, dup := m.index(agentID)
	if dup {
		return fmt.Errorf("core: instruction memory already allocated for agent %d", agentID)
	}
	need := BlocksFor(codeLen)
	if m.usedBlocks+need > m.totalBlocks {
		return fmt.Errorf("%w: need %d blocks, %d free", ErrNoInstrMem, need, m.FreeBlocks())
	}
	m.byAgent = append(m.byAgent, codeAlloc{})
	copy(m.byAgent[i+1:], m.byAgent[i:])
	m.byAgent[i] = codeAlloc{agentID: agentID, blocks: uint16(need)}
	m.usedBlocks += need
	return nil
}

// CanAlloc reports whether codeLen bytes would fit right now.
func (m *InstrMem) CanAlloc(codeLen int) bool {
	return m.usedBlocks+BlocksFor(codeLen) <= m.totalBlocks
}

// Free releases an agent's blocks. Freeing an unknown agent is a no-op.
func (m *InstrMem) Free(agentID uint16) {
	if i, ok := m.index(agentID); ok {
		m.usedBlocks -= int(m.byAgent[i].blocks)
		m.byAgent = append(m.byAgent[:i], m.byAgent[i+1:]...)
	}
}

// BlocksOf returns the blocks charged to an agent.
func (m *InstrMem) BlocksOf(agentID uint16) int {
	if i, ok := m.index(agentID); ok {
		return int(m.byAgent[i].blocks)
	}
	return 0
}
