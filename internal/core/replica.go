package core

import (
	"math/rand"
	"time"

	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/replica"
	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/wire"
)

// The replication engine: each mote's tuple space doubles as a two-phase
// replicated set (internal/replica) synchronized to radio neighbors by
// periodic anti-entropy gossip. The paper's remote operations are
// best-effort probes against a single mote's RAM (§2.2); replication adds
// the missing survivability story — a tuple outlives its node, a remote
// rrdp can be answered from a neighbor's replica when the owner is down,
// and a recovered mote gets its own tuples streamed back.
//
// Everything here runs inside the owning node's scheduling context: ticks
// are node events, gossip frames travel through the radio medium (and so
// respect the parallel executor's windows), and the per-node peer-choice
// stream is derived from the deployment seed alone. Replication-enabled
// runs are therefore trace-identical across worker counts, like every
// other subsystem.

// saltReplica derives the per-node gossip peer-choice streams ("repl").
const saltReplica = 0x7265706c

// replicaDeltaCap bounds entries per delta frame, keeping gossip payloads
// mote-sized. Anti-entropy resumes where the cap cut off, so convergence
// is unaffected — a big resync just takes several rounds.
const replicaDeltaCap = 16

// replicaLinesCap sizes the stack scratch a digest is built in and
// decoded into: the wire format's count byte admits at most 255 lines.
const replicaLinesCap = 255

// Replication configures the gossip CRDT layer. The zero value of each
// field selects a default; attach to a deployment via
// DeploymentSpec.Replication.
type Replication struct {
	// K is the gossip fan-out: how many radio neighbors receive a digest
	// each tick (default 2).
	K int
	// Period is the anti-entropy tick period (default 500ms).
	Period time.Duration
	// MaxEntries caps each mote's replica store, live entries plus
	// tombstones (default 128); tombstones are always admitted.
	MaxEntries int
	// QuiescentEvery controls digest suppression for quiescent stores: a
	// tick whose store hasn't changed since the last transmitted digest
	// sends nothing, except that every QuiescentEvery-th consecutive
	// quiet tick still sends one keepalive round so rebooted or newly
	// adjacent neighbors eventually hear the full state (default 8; 1
	// sends every tick, disabling suppression).
	QuiescentEvery int
}

func (r Replication) withDefaults() Replication {
	if r.K <= 0 {
		r.K = 2
	}
	if r.Period <= 0 {
		r.Period = 500 * time.Millisecond
	}
	if r.MaxEntries <= 0 {
		r.MaxEntries = 128
	}
	if r.QuiescentEvery <= 0 {
		r.QuiescentEvery = 8
	}
	return r
}

// replicaState is one node's replication side: the CRDT store, the origin
// sequence counter, and the gossip tick bookkeeping.
type replicaState struct {
	cfg Replication
	set *replica.Set
	rng *rand.Rand // peer choice; deployment-seeded per node

	// seq numbers this node's originated entries. It survives Crash — the
	// counter models a nonvolatile register, because reusing a sequence
	// after reboot would collide with dots still circulating in neighbor
	// stores and could resurrect a tombstoned tuple.
	seq uint16

	// former lists addresses this node previously occupied; entries
	// originated before a move carry the old location, and removal
	// tracking and recovery must keep recognizing them as ours.
	former []topology.Location

	tick sim.Timer // the periodic anti-entropy tick (see startGossip)
	mute int       // >0: space hooks ignore inserts/removals (bookkeeping ops)

	// dirty marks the store as changed since the last transmitted digest;
	// quiet counts consecutive suppressed ticks so a quiescent store
	// still sends a keepalive digest every cfg.QuiescentEvery ticks.
	dirty bool
	quiet int
}

// EnableReplication attaches the gossip CRDT layer to the node. Call after
// construction and before Start; rng must be a dedicated deterministic stream
// (the deployment derives one per node from the seed). Context tuples
// seeded before this call are deliberately untracked — they are per-node
// state, not application data.
func (n *Node) EnableReplication(cfg Replication, rng *rand.Rand) {
	cfg = cfg.withDefaults()
	n.repl = &replicaState{cfg: cfg, rng: rng, set: replica.NewSet(cfg.MaxEntries)}
	n.repl.tick.Init(n.sim, n.gossipTick)
	n.space.SetHooks(n.onTupleInserted, n.replicaOnRemove)
}

// ReplicaLive returns the node's live replica entries (tests and the churn
// harness inspect survival through this). Nil without replication.
func (n *Node) ReplicaLive() []replica.Entry {
	if n.repl == nil {
		return nil
	}
	return n.repl.set.Live()
}

// replicaMuted runs f with replica tracking suppressed — for bookkeeping
// inserts and removals (context tuples, agent records, recovery re-inserts)
// that must not be stamped as application data.
func (n *Node) replicaMuted(f func()) {
	if n.repl == nil {
		f()
		return
	}
	n.repl.mute++
	f()
	n.repl.mute--
}

// replicaOnInsert stamps a fresh arena insertion with this node's next
// origin dot. The sequence only advances when the store admits the entry,
// so a full store never opens a gap below this origin's frontier (a gap
// would stall delta propagation of everything above it).
func (n *Node) replicaOnInsert(t tuplespace.Tuple) {
	r := n.repl
	if r == nil || r.mute > 0 {
		return
	}
	if r.set.Add(replica.Origin{Node: n.loc, Seq: r.seq + 1}, t) {
		r.seq++
		r.dirty = true
	}
}

// replicaOnRemove, the space's remove hook under replication, tombstones
// the replica entry behind a consumed arena tuple. Only entries this node
// originated (at its current or a former address) are findable here;
// consuming an untracked tuple is a no-op.
func (n *Node) replicaOnRemove(t tuplespace.Tuple) {
	r := n.repl
	if r.mute > 0 {
		return
	}
	o, ok := r.set.FindLocal(n.loc, t)
	for i := 0; !ok && i < len(r.former); i++ {
		o, ok = r.set.FindLocal(r.former[i], t)
	}
	if ok {
		r.set.Tombstone(o)
		r.dirty = true
	}
}

// ownsReplicaOrigin reports whether dots stamped at loc are this node's:
// the current location plus any vacated by moves.
func (n *Node) ownsReplicaOrigin(loc topology.Location) bool {
	if loc == n.loc {
		return true
	}
	for _, f := range n.repl.former {
		if f == loc {
			return true
		}
	}
	return false
}

// startGossip arms the periodic anti-entropy tick. Crash stops it and
// Recover re-arms it — whose first tick advertises a near-empty store,
// which is exactly the invitation neighbors need to stream state back.
func (n *Node) startGossip() {
	r := n.repl
	if r == nil {
		return
	}
	// Force the first tick after every start to transmit: a freshly booted
	// (or recovered) node's digest is the invitation neighbors answer by
	// streaming state back, so it must not be suppressed as quiescent.
	r.dirty = true
	r.tick.Reset(r.cfg.Period)
}

// gossipTick is one anti-entropy round, re-armed while the node stays up.
func (n *Node) gossipTick() {
	n.pushDigest()
	if n.life == NodeUp { // transmitting the digests can empty the battery
		n.repl.tick.Reset(n.repl.cfg.Period)
	}
}

// stopGossip disarms the anti-entropy tick.
func (n *Node) stopGossip() {
	if n.repl != nil {
		n.repl.tick.Stop()
	}
}

// pushDigest pushes this node's digest to K neighbors. Peer choice draws
// once from the node's own stream (when there is a choice to make), so the
// sequence of choices is a pure function of the seed and this node's
// schedule — identical under both executors.
func (n *Node) pushDigest() {
	r := n.repl
	nbrs := n.net.Acquaintances().Neighbors()
	if len(nbrs) == 0 {
		return
	}
	k := r.cfg.K
	if k > len(nbrs) {
		k = len(nbrs)
	}
	// Quiescence: a store unchanged since the last transmitted digest has
	// nothing for anti-entropy to reconcile, so skip the round and save
	// the radio energy — but never go silent forever: every
	// QuiescentEvery-th quiet tick sends a keepalive round so a rebooted
	// or newly adjacent neighbor still converges.
	if !r.dirty && r.quiet+1 < r.cfg.QuiescentEvery {
		r.quiet++
		n.stats.DigestsSuppressed += uint64(k)
		return
	}
	r.dirty = false
	r.quiet = 0
	start := 0
	if len(nbrs) > 1 {
		start = r.rng.Intn(len(nbrs))
	}
	var lines [replicaLinesCap]replica.Summary
	n.tx = wire.ReplicaDigest{Lines: r.set.AppendDigest(lines[:0])}.Append(n.tx[:0])
	for i := 0; i < k; i++ {
		n.net.SendDirect(nbrs[(start+i)%len(nbrs)].Loc, radio.KindReplicaDigest, n.tx)
		n.stats.DigestsSent++
		if n.life != NodeUp {
			return // the transmit charge emptied the battery
		}
	}
}

// recvReplicaDigest answers a peer's digest: a delta with whatever the
// peer lacks, and — on first contact only — a reply digest if the peer
// advertises state we lack. Replies are never answered with further
// digests, which is what terminates every exchange.
func (n *Node) recvReplicaDigest(f radio.Frame) {
	r := n.repl
	if r == nil {
		return
	}
	// Both scratch arrays live on this frame: a digest from a peer that
	// agrees with us is answered, with silence, without allocating.
	var lines [replicaLinesCap]replica.Summary
	d, err := wire.DecodeReplicaDigestInto(lines[:0], f.Payload)
	if err != nil {
		return
	}
	var entries [replicaDeltaCap]replica.Entry
	if delta := r.set.AppendDelta(entries[:0], d.Lines, replicaDeltaCap); len(delta) > 0 {
		n.tx = wire.ReplicaDelta{Entries: delta}.Append(n.tx[:0])
		n.net.SendDirect(f.Src, radio.KindReplicaDelta, n.tx)
		if n.life != NodeUp {
			return
		}
	}
	if !d.Reply && r.set.NeedsFrom(d.Lines) {
		// The peer's lines are done with; ours take their place.
		n.tx = wire.ReplicaDigest{Reply: true, Lines: r.set.AppendDigest(lines[:0])}.Append(n.tx[:0])
		n.net.SendDirect(f.Src, radio.KindReplicaDigest, n.tx)
	}
}

// recvReplicaDelta merges a peer's delta entry by entry, applying the two
// arena side effects: a tombstone for a tuple this node re-owns removes
// the arena copy, and an add for an origin this node owns (the recovery
// path — a neighbor streaming back what this node lost in a crash)
// re-inserts the tuple into the arena.
func (n *Node) recvReplicaDelta(f radio.Frame) {
	r := n.repl
	if r == nil {
		return
	}
	// The entries decode into stack scratch and their tuples' fields into
	// the shard's; the store gets a copy of each tuple it takes.
	var entries [replicaDeltaCap]replica.Entry
	d, err := wire.DecodeReplicaDeltaInto(entries[:0], n.deltaFields[:0], f.Payload)
	if err != nil {
		return
	}
	added, removed := 0, 0
	for _, e := range d.Entries {
		if e.Removed {
			prior, wasLive, changed := r.set.Tombstone(e.Origin)
			if !changed {
				continue
			}
			removed++
			if wasLive && n.ownsReplicaOrigin(e.Origin.Node) {
				// Someone consumed our tuple remotely (rinp served from a
				// replica): retract the arena copy so it cannot be read
				// again locally, let alone resurrect.
				n.replicaMuted(func() {
					n.space.Inp(tuplespace.Template{Fields: prior.Fields})
				})
			}
			continue
		}
		if !r.set.Admits(e.Origin) {
			continue
		}
		t := tuplespace.Tuple{Fields: make([]tuplespace.Value, len(e.Tuple.Fields))}
		copy(t.Fields, e.Tuple.Fields)
		r.set.Add(e.Origin, t)
		added++
		n.stats.TuplesReplicated++
		if n.ownsReplicaOrigin(e.Origin.Node) {
			recovered := false
			n.replicaMuted(func() {
				exact := tuplespace.Template{Fields: t.Fields}
				if _, ok := n.space.Rdp(exact); !ok {
					recovered = n.space.Out(t) == nil
				}
			})
			if recovered {
				n.stats.TuplesRecovered++
				if n.trace.TupleRecovered != nil {
					n.trace.TupleRecovered(n.loc, t)
				}
			}
		}
	}
	if added > 0 || removed > 0 {
		// Merged state is news to every neighbor except the sender: wake
		// the next gossip tick so the delta keeps propagating.
		r.dirty = true
		if n.trace.ReplicaSynced != nil {
			n.trace.ReplicaSynced(n.loc, f.Src, added, removed)
		}
	}
}
