package agilla

// Space handles: the host-facing view of one node's Linda-like tuple
// space. Agents coordinate through per-node tuple spaces with reactions
// (§2.2); Space gives hosts, tests, and dashboards the same vocabulary —
// probe operations plus reactive Watch subscriptions — instead of a
// grab-bag of Network methods.

import (
	"fmt"
)

// Space is a handle on the tuple space of one node. Obtain one from
// Network.Space; handles are cheap values and remain valid for the life
// of the network. Operations through the handle execute immediately on
// the host (they model the user leaning over the deployment, not a radio
// message); for over-the-air operations from the base station use
// RemoteClient.
type Space struct {
	nw  *Network
	loc Location
}

// Space returns the tuple space handle for the node at loc. The base
// station's space is at its location (default (0,0)). A handle for a
// location with no node is valid but empty: probes miss, Out fails, and
// Watch channels close immediately.
func (nw *Network) Space(loc Location) Space { return Space{nw: nw, loc: loc} }

// Loc returns the node location this handle addresses.
func (sp Space) Loc() Location { return sp.loc }

// Out inserts a tuple. It fails with ErrNoSuchNode if no node lives
// here, and otherwise if the tuple is oversized or the node's arena is
// full (the insertion is atomic: all or nothing, §3.2).
func (sp Space) Out(t Tuple) error {
	n := sp.nw.d.Node(sp.loc)
	if n == nil {
		return fmt.Errorf("%w at %v", ErrNoSuchNode, sp.loc)
	}
	return n.Space().Out(t)
}

// Rdp copies the first tuple matching the template without removing it,
// reporting whether a match was found.
func (sp Space) Rdp(p Template) (Tuple, bool) {
	n := sp.nw.d.Node(sp.loc)
	if n == nil {
		return Tuple{}, false
	}
	return n.Space().Rdp(p)
}

// Inp removes and returns the first tuple matching the template.
func (sp Space) Inp(p Template) (Tuple, bool) {
	n := sp.nw.d.Node(sp.loc)
	if n == nil {
		return Tuple{}, false
	}
	return n.Space().Inp(p)
}

// Count returns how many stored tuples match the template.
func (sp Space) Count(p Template) int {
	n := sp.nw.d.Node(sp.loc)
	if n == nil {
		return 0
	}
	return n.Space().Count(p)
}

// All returns copies of every stored tuple, in insertion order.
func (sp Space) All() []Tuple {
	n := sp.nw.d.Node(sp.loc)
	if n == nil {
		return nil
	}
	return n.Space().All()
}

// Watch subscribes to insertions matching the template: the host-side
// analogue of an agent's regrxn, layered on the same tuple-space-manager
// insert hook that fires reactions (§3.2). Every tuple inserted after
// the call whose fields match p is delivered to the returned channel in
// insertion order. Like reactions — and unlike in/rd — Watch observes
// insertions only; tuples already in the space are not replayed (probe
// with Rdp/All first for a snapshot-then-watch idiom).
//
// Delivery never blocks or perturbs the simulation: matches queue
// without bound until read. The channel closes after Network.Close, once
// already-queued matches have been drained (the same close+drain
// contract as Events).
//
// A watch observes one incarnation of the node's space: if the node dies
// (a scripted kill, churn, energy exhaustion), its volatile space is destroyed and
// the watch terminates — already-queued tuples remain readable, then the
// channel closes, so ranging over a watch ends at whichever comes first
// of node death and Network.Close. Re-Watch after a revival to observe
// the new space. A watch follows its node through relocations.
func (sp Space) Watch(p Template) <-chan Tuple {
	st := newStream[Tuple]()
	n := sp.nw.d.Node(sp.loc)
	if n == nil {
		st.close()
		return st.out
	}
	// Closing unregisters the matcher too, so a finished watch costs the
	// node's insert path nothing.
	sp.nw.registerWatch(sp.loc, func() func() {
		return n.Space().OnInsert(func(t Tuple) {
			if p.Matches(t) {
				st.push(t)
			}
		})
	}, st)
	return st.out
}
