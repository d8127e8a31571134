package tuplespace

import (
	"errors"
	"fmt"
)

// DefaultRegistryBytes and DefaultRegistryMax mirror the paper: "By default
// the reaction registry is allocated 400 bytes, allowing it to remember up
// to 10 reactions" (§3.2).
const (
	DefaultRegistryBytes = 400
	DefaultRegistryMax   = 10
)

// ErrRegistryFull is returned when a reaction cannot be registered.
var ErrRegistryFull = errors.New("tuplespace: reaction registry full")

// reactionOverheadBytes approximates the per-entry bookkeeping (agent id,
// reaction code address, template pointer) charged against the 400-byte
// budget.
const reactionOverheadBytes = 6

// Reaction associates an agent's template with the code address to run
// when a matching tuple is inserted (§2.2).
type Reaction struct {
	AgentID  uint16
	Template Template
	// PC is the address of the first instruction of the reaction's code.
	PC uint16
}

// EncodedSize is the registry budget charge for this reaction.
func (r Reaction) EncodedSize() int { return reactionOverheadBytes + r.Template.EncodedSize() }

// Registry stores registered reactions within a byte and entry budget.
// The zero Registry is not usable; construct with NewRegistry or Init.
type Registry struct {
	entries  []Reaction
	used     int
	capBytes int
	maxN     int
}

// NewRegistry creates a registry; non-positive arguments select the
// paper's defaults.
func NewRegistry(capBytes, maxEntries int) *Registry {
	g := new(Registry)
	g.Init(capBytes, maxEntries)
	return g
}

// Init makes g an empty registry with the given budgets (non-positive:
// the paper's defaults), for owners that hold a Registry by value; it also
// serves to wipe one.
func (g *Registry) Init(capBytes, maxEntries int) {
	if capBytes <= 0 {
		capBytes = DefaultRegistryBytes
	}
	if maxEntries <= 0 {
		maxEntries = DefaultRegistryMax
	}
	*g = Registry{capBytes: capBytes, maxN: maxEntries}
}

// Len returns the number of registered reactions.
func (g *Registry) Len() int { return len(g.entries) }

// UsedBytes returns the bytes charged against the registry budget.
func (g *Registry) UsedBytes() int { return g.used }

// CapBytes returns the registry byte budget.
func (g *Registry) CapBytes() int { return g.capBytes }

// Register adds a reaction. Registering an identical (agent, template, pc)
// entry twice is a no-op, matching the idempotent regrxn semantics.
func (g *Registry) Register(r Reaction) error {
	for _, e := range g.entries {
		if e.AgentID == r.AgentID && e.PC == r.PC && e.Template.Equal(r.Template) {
			return nil
		}
	}
	sz := r.EncodedSize()
	if len(g.entries) >= g.maxN || g.used+sz > g.capBytes {
		return fmt.Errorf("%w: %d entries, %d/%d bytes", ErrRegistryFull, len(g.entries), g.used, g.capBytes)
	}
	g.entries = append(g.entries, r)
	g.used += sz
	return nil
}

// Deregister removes the agent's reaction matching the template (deregrxn).
// It reports whether anything was removed.
func (g *Registry) Deregister(agentID uint16, p Template) bool {
	for i, e := range g.entries {
		if e.AgentID == agentID && e.Template.Equal(p) {
			g.used -= e.EncodedSize()
			g.entries = append(g.entries[:i], g.entries[i+1:]...)
			return true
		}
	}
	return false
}

// RemoveAgent removes all reactions registered by the agent (it died or
// left the node) and returns how many there were.
func (g *Registry) RemoveAgent(agentID uint16) int {
	kept := g.entries[:0]
	for _, e := range g.entries {
		if e.AgentID == agentID {
			g.used -= e.EncodedSize()
		} else {
			kept = append(kept, e)
		}
	}
	removed := len(g.entries) - len(kept)
	clear(g.entries[len(kept):])
	g.entries = kept
	return removed
}

// AppendForAgent appends copies of the agent's registered reactions to dst
// and returns the extended slice. The migration packager uses it to
// collect the reactions that travel with an agent (§3.2).
func (g *Registry) AppendForAgent(dst []Reaction, agentID uint16) []Reaction {
	for _, e := range g.entries {
		if e.AgentID == agentID {
			dst = append(dst, e)
		}
	}
	return dst
}

// Matching returns all reactions whose template matches the tuple, in
// registration order.
func (g *Registry) Matching(t Tuple) []Reaction {
	var out []Reaction
	for _, e := range g.entries {
		if e.Template.Matches(t) {
			out = append(out, e)
		}
	}
	return out
}
