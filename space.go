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
// analogue of an agent's regrxn (§3.2). It filters the event stream that
// Network.Events reads, keeping the EventTupleOut records of this node
// whose tuple matches p, so it sees every insertion whatever made it.
// Every tuple inserted after the call whose fields match p is delivered
// to the returned channel in insertion order. Like reactions — and unlike
// in/rd — Watch observes insertions only; tuples already in the space
// are not replayed (probe with Rdp/All first for a snapshot-then-watch
// idiom).
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
// the new space. A watch follows its node through relocations: an
// EventNodeMoved from the watched address moves the watch with it.
func (sp Space) Watch(p Template) <-chan Tuple {
	st := newStream[Tuple]()
	if sp.nw.d.Node(sp.loc) == nil {
		st.close()
		return st.out
	}
	loc := sp.loc // follows moves; only send touches it, under nw.ev.mu
	sp.nw.subscribe(subscription{end: st.close, send: func(e Event) bool {
		switch {
		case e.Kind == EventTupleOut && e.Node == loc && p.Matches(e.Tuple):
			st.push(e.Tuple)
		case e.Kind == EventNodeMoved && e.Peer == loc:
			loc = e.Node
		case e.Kind == EventNodeDied && e.Node == loc:
			return false
		}
		return true
	}})
	return st.out
}
