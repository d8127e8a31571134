package tuplespace

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
//
// The registry owns its templates: fields holds every entry's template
// fields back to back, in entry order, and each entry's Template.Fields is
// a capacity-capped window on it. Registering copies into fields and
// removing closes the gap, so a registry that has once held its largest
// set of reactions registers and deregisters without allocating.
type Registry struct {
	entries  []Reaction
	fields   []Value
	capBytes int32
	maxN     int32
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
	*g = Registry{capBytes: int32(min(capBytes, math.MaxInt32)), maxN: int32(min(maxEntries, math.MaxInt32))}
}

// Len returns the number of registered reactions.
func (g *Registry) Len() int { return len(g.entries) }

// UsedBytes returns the bytes charged against the registry budget.
func (g *Registry) UsedBytes() int {
	n := 0
	for _, e := range g.entries {
		n += e.EncodedSize()
	}
	return n
}

// CapBytes returns the registry byte budget.
func (g *Registry) CapBytes() int { return int(g.capBytes) }

// Register adds a reaction, copying its template into the registry's own
// storage: r's fields are the caller's again once Register returns.
// Registering an identical (agent, template, pc) entry twice is a no-op,
// matching the idempotent regrxn semantics.
func (g *Registry) Register(r Reaction) error {
	for _, e := range g.entries {
		if e.AgentID == r.AgentID && e.PC == r.PC && e.Template.Equal(r.Template) {
			return nil
		}
	}
	used, sz := g.UsedBytes(), r.EncodedSize()
	if len(g.entries) >= int(g.maxN) || used+sz > int(g.capBytes) {
		return fmt.Errorf("%w: %d entries, %d/%d bytes", ErrRegistryFull, len(g.entries), used, g.capBytes)
	}
	g.fields = append(g.fields, r.Template.Fields...)
	g.entries = append(g.entries, r)
	g.repoint() // the append may have moved fields
	return nil
}

// Deregister removes the agent's reaction matching the template (deregrxn).
// It reports whether anything was removed.
func (g *Registry) Deregister(agentID uint16, p Template) bool {
	off := 0
	for i, e := range g.entries {
		n := len(e.Template.Fields)
		if e.AgentID == agentID && e.Template.Equal(p) {
			g.fields = slices.Delete(g.fields, off, off+n)
			g.entries = slices.Delete(g.entries, i, i+1)
			g.repoint()
			return true
		}
		off += n
	}
	return false
}

// RemoveAgent removes all reactions registered by the agent (it died or
// left the node) and returns how many there were.
func (g *Registry) RemoveAgent(agentID uint16) int {
	kept, nf := g.entries[:0], 0
	for _, e := range g.entries {
		if e.AgentID != agentID {
			nf += copy(g.fields[nf:], e.Template.Fields) // moves down or stays: the windows are in entry order
			kept = append(kept, e)
		}
	}
	removed := len(g.entries) - len(kept)
	clear(g.entries[len(kept):])
	clear(g.fields[nf:])
	g.entries, g.fields = kept, g.fields[:nf]
	g.repoint()
	return removed
}

// repoint aims each entry's template at its window of fields.
func (g *Registry) repoint() {
	off := 0
	for i := range g.entries {
		e := &g.entries[i]
		end := off + len(e.Template.Fields)
		e.Template.Fields = g.fields[off:end:end]
		off = end
	}
}

// AppendForAgent appends the agent's registered reactions to dst and
// returns the extended slice. The migration packager uses it to collect
// the reactions that travel with an agent (§3.2). The templates are the
// registry's own storage, valid until the registry next changes.
func (g *Registry) AppendForAgent(dst []Reaction, agentID uint16) []Reaction {
	for _, e := range g.entries {
		if e.AgentID == agentID {
			dst = append(dst, e)
		}
	}
	return dst
}

// Matching returns all reactions whose template matches the tuple, in
// registration order, in a fresh slice; see AppendMatching.
func (g *Registry) Matching(t Tuple) []Reaction { return g.AppendMatching(nil, t) }

// AppendMatching appends the reactions whose template matches the tuple to
// dst, in registration order, and returns the extended slice. As with
// AppendForAgent the templates are the registry's own storage.
func (g *Registry) AppendMatching(dst []Reaction, t Tuple) []Reaction {
	for _, e := range g.entries {
		if e.Template.Matches(t) {
			dst = append(dst, e)
		}
	}
	return dst
}
