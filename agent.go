package agilla

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Agent is a handle on one injected agent. It tracks the agent across the
// whole network — through multi-hop migrations, clones, and death —
// replacing the uint16-ID-plus-polling pattern of the old API. Handles
// are cheap (an ID plus a network pointer) and remain valid after the
// agent dies, reporting its final state.
//
// The duplicate-tolerant failure semantics of the migration protocol
// (§3.2 of the paper) mean a failed handoff can leave two live copies
// under one ID; the handle then follows the copy that last made progress.
type Agent struct {
	nw *Network
	id uint16
}

// Agent returns a handle for an agent ID obtained elsewhere (a trace
// callback, Node.AgentIDs). The handle is valid even if the ID is
// unknown; its state then reads as zero values.
func (nw *Network) Agent(id uint16) *Agent { return &Agent{nw: nw, id: id} }

// Agents returns handles for every agent the network has ever recorded,
// sorted by ID (including halted and died agents).
func (nw *Network) Agents() []*Agent {
	ids := nw.agents.ids()
	out := make([]*Agent, len(ids))
	for i, id := range ids {
		out[i] = &Agent{nw: nw, id: id}
	}
	return out
}

// ID returns the network-unique agent ID.
func (a *Agent) ID() uint16 { return a.id }

// Info returns the full tracked record.
func (a *Agent) Info() AgentInfo {
	info, _ := a.nw.record(a.id)
	return info
}

// Location returns the last node known to host the agent. While a
// multi-hop transfer is in flight this lags at the hop that last reported
// progress.
func (a *Agent) Location() Location { return a.Info().Loc }

// State returns the agent's live engine state (ready, sleeping, waiting,
// blocked, migrating, remote, dead).
func (a *Agent) State() AgentState { return a.Info().State }

// Hops returns how many hop transfers the agent has completed, counting
// every relay hop of multi-hop moves and the initial injection hops.
func (a *Agent) Hops() int { return a.Info().Hops }

// Clones returns how many clones this agent has spawned so far.
func (a *Agent) Clones() int { return a.Info().Clones }

// Parent returns the handle of the agent this one was cloned from, or nil
// for original (injected) agents.
func (a *Agent) Parent() *Agent {
	info := a.Info()
	if info.Parent == 0 {
		return nil
	}
	return &Agent{nw: a.nw, id: info.Parent}
}

// Done reports whether the agent's life is over: halted, died with an
// error, or killed.
func (a *Agent) Done() bool { return a.Info().Done() }

// Alive reports whether the agent still runs somewhere (or is in flight).
func (a *Agent) Alive() bool {
	info, ok := a.nw.record(a.id)
	return ok && !info.Done()
}

// Halted reports whether the agent ended by voluntarily executing halt.
func (a *Agent) Halted() bool { return a.Info().Halted }

// Err returns the fatal error for an agent that died, or nil.
func (a *Agent) Err() error { return a.Info().Err }

// Host returns the node currently hosting the agent, or nil while it is
// in flight or after it died.
func (a *Agent) Host() *Node {
	info, ok := a.nw.agents.get(a.id)
	if !ok {
		return nil
	}
	if n := a.nw.d.Node(info.Loc); n != nil {
		if _, hosted := n.AgentInfo(a.id); hosted {
			return n
		}
	}
	return nil
}

// Wait advances the simulation until pred(a) is true or limit of virtual
// time elapses, reporting whether pred became true. The predicate is
// checked after every simulation event, so transitions cannot be missed:
//
//	arrived, err := ag.Wait(func(a *agilla.Agent) bool {
//		return a.Location() == dest
//	}, time.Minute)
//
// If the agent dies because its host node went down (a scripted kill,
// churn, or battery exhaustion) before pred becomes true, Wait returns
// (false, ErrNodeDown) immediately instead of idling out the limit —
// waiting on a condition a dead agent can never satisfy is a scripting
// bug worth a typed error. A pred that is itself satisfied by the death
// (e.g. WaitDone's) still wins: Wait reports true.
func (a *Agent) Wait(pred func(*Agent) bool, limit time.Duration) (bool, error) {
	if pred == nil {
		return false, fmt.Errorf("agilla: Agent.Wait needs a predicate")
	}
	matched := false
	hostDied := func() bool {
		info, ok := a.nw.record(a.id)
		return ok && info.State == AgentDead && errors.Is(info.Err, ErrNodeDown)
	}
	ok, err := a.nw.RunUntil(func() bool {
		if pred(a) {
			matched = true
			return true
		}
		return hostDied()
	}, limit)
	if err != nil {
		return false, err
	}
	if matched || pred(a) {
		return true, nil
	}
	if ok || hostDied() {
		// The run stopped because the agent died with its node.
		return false, ErrNodeDown
	}
	return false, nil
}

// WaitDone advances the simulation until the agent's life is over (halt,
// error, or kill), reporting whether that happened within limit.
func (a *Agent) WaitDone(limit time.Duration) (bool, error) {
	return a.Wait(func(ag *Agent) bool { return ag.Done() }, limit)
}

// String renders the handle for diagnostics.
func (a *Agent) String() string {
	info, ok := a.nw.record(a.id)
	if !ok {
		return fmt.Sprintf("agent %d (untracked)", a.id)
	}
	return fmt.Sprintf("agent %d at %v (%v, %d hops, %d clones)",
		a.id, info.Loc, info.State, info.Hops, info.Clones)
}

// record returns the registry's record for id, refining the coarse state
// with the hosting node's live engine state when available.
func (nw *Network) record(id uint16) (AgentInfo, bool) {
	info, ok := nw.agents.get(id)
	if !ok {
		return AgentInfo{}, false
	}
	if n := nw.d.Node(info.Loc); n != nil && info.State != AgentDead {
		if st, hosted := n.AgentInfo(id); hosted {
			info.State = st
		}
	}
	return info, true
}

// registry is the Network's record of every agent's life, kept by the
// trace taps New installs (see installTaps): the motes report agent
// events, and only the base station's side keeps a network-wide list.
// Under a parallel executor the taps fire concurrently from shard
// workers, so updates lock; a given agent's life-cycle events are
// causally ordered through the radio, so the final record is the same
// whatever order unrelated agents' updates interleave in. Timestamps are
// the reporting node's clock, which is exact where the executor-wide
// clock is only barrier-accurate.
type registry struct {
	mu     sync.Mutex
	agents map[uint16]*AgentInfo
}

func (r *registry) ensure(id uint16, now time.Duration) *AgentInfo {
	info, ok := r.agents[id]
	if !ok {
		info = &AgentInfo{ID: id, BornAt: now}
		r.agents[id] = info
	}
	return info
}

// born records a brand-new agent entering the system under id. Agent IDs
// are 16 bits and a node's counter wraps, so a creation event landing on
// a dead record means the ID was reused — start a fresh lifetime instead
// of resurrecting (and merging stats with) the dead one. A live record
// is kept: that is the same lifetime (e.g. the arrival completing an
// injection the registry already opened).
func (r *registry) born(id uint16, now time.Duration) *AgentInfo {
	if info, ok := r.agents[id]; ok && info.State != AgentDead {
		return info
	}
	info := &AgentInfo{ID: id, BornAt: now}
	r.agents[id] = info
	return info
}

// update applies f to id's record under the lock. A birth (an injection
// leaving its node or materializing on it) opens the record with born,
// anything else with ensure.
func (r *registry) update(id uint16, now time.Duration, birth bool, f func(*AgentInfo)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if birth {
		f(r.born(id, now))
	} else {
		f(r.ensure(id, now))
	}
}

// cloned records a clone instantiation, attributing it to the parent.
// The clone's ID is freshly minted, so a dead record under it is a
// previous lifetime of a wrapped ID.
func (r *registry) cloned(now time.Duration, node Location, parent, clone uint16) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensure(parent, now).Clones++
	info := r.born(clone, now)
	info.Parent = parent
	info.Loc = node
	info.State = AgentReady
}

// finish ends id's lifetime at node: a voluntary halt, or a death with
// err (nil for a host kill).
func (r *registry) finish(now time.Duration, node Location, id uint16, halted bool, err error) {
	r.update(id, now, false, func(info *AgentInfo) {
		info.Loc = node
		info.State = AgentDead
		info.Halted = halted
		info.Err = err
		if info.DoneAt == 0 {
			info.DoneAt = now
		}
	})
}

// get returns a copy of the record for id.
func (r *registry) get(id uint16) (AgentInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	info, ok := r.agents[id]
	if !ok {
		return AgentInfo{}, false
	}
	return *info, true
}

// ids returns every recorded agent ID, sorted.
func (r *registry) ids() []uint16 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]uint16, 0, len(r.agents))
	for id := range r.agents {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
