package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
	"github.com/agilla-go/agilla/internal/wire"
)

// The agent sender/receiver pair (Figure 4) and the migration protocol of
// §3.2: an agent is divided into state, code, heap, stack, and reaction
// messages (Figure 5) and moved one hop at a time. Every message is
// acknowledged; an unacknowledged message is retransmitted after 0.1 s up
// to four times, and a receiver whose transfer stalls for 0.25 s aborts.
// A sender that cannot complete the handoff resumes the agent locally with
// the condition code cleared — duplicates are preferred over loss.

type migKey struct {
	agentID uint16
	seq     uint16
}

// inKey identifies an inbound transfer on the receiver. The sender's
// location is part of the key: seq counters are per-sender, so two
// different senders may reuse the same (agentID, seq) pair — an agent
// whose walk re-crosses a node would otherwise collide with the stale
// duplicate-suppression entry from its first visit and be silently
// swallowed.
type inKey struct {
	migKey
	from topology.Location
}

// compare orders inbound transfers by agent, sequence number and sender
// ((Y,X) order), the order a crash reports their agents' deaths in.
func (k inKey) compare(o inKey) int {
	return cmp.Or(cmp.Compare(k.agentID, o.agentID), cmp.Compare(k.seq, o.seq), k.from.Compare(o.from))
}

// A warm hop allocates nothing. The transfer records on both sides come
// from their shard's free lists and hold the agent in fixed slots: the
// sender encodes the Figure 5 sequence into one reused buffer, and the
// receiver writes each fragment straight into the slot it fills. The
// agent that arrives takes its record, its VM state and its code buffer
// from the free lists too, where the agents that left the shard's motes
// put theirs. Each transfer record's timer is bound once, when the record
// is first made, and carries every delay the record waits out — the
// packaging and reassembly overheads as well as the protocol timeouts —
// with the same ordering identity a scheduled closure would take.

// msgMeta identifies one migration message for ack matching and locates
// it in the sender's buffer.
type msgMeta struct {
	typ wire.MsgType
	idx uint8
	end uint16 // offset just past the message in outMigration.buf
}

// outMigration is the agent sender's per-transfer state. The agent is
// encoded when it is packed; the transfer is numbered when it begins.
type outMigration struct {
	n       *Node // the sending node
	key     migKey
	rec     *record
	kind    wire.MigKind
	dest    topology.Location // final destination
	nextHop topology.Location
	buf     []byte    // the encoded Figure 5 sequence, back to back
	metas   []msgMeta // one per message in buf
	acked   int
	retries int
	// timer first times the packaging overhead, then (once started) the
	// ack timeouts.
	timer   sim.Timer
	started bool
	origin  bool // false when relaying an agent passing through
}

// msg returns the i-th encoded message.
func (om *outMigration) msg(i int) []byte {
	lo := uint16(0)
	if i > 0 {
		lo = om.metas[i-1].end
	}
	return om.buf[lo:om.metas[i].end]
}

func (om *outMigration) clock() *sim.Timer { return &om.timer }

// inMigration is the agent receiver's per-transfer state. The sender to
// ack (previous hop, or the origin in end-to-end mode) is key.from.
type inMigration struct {
	n     *Node // the receiving node
	key   inKey
	st    wire.StateMsg
	code  []byte // NCode blocks, written in place; becomes the agent's Code
	heap  [vm.HeapSlots]tuplespace.Value
	stack [vm.StackDepth]tuplespace.Value
	rxns  []tuplespace.Reaction // by index; NRxn of them
	// got marks the data fragments received, one bit each (see fragBit),
	// and have counts them by type: code, heap, stack, reaction.
	got  [5]uint64
	have [4]uint8
	// stall is the receiver stall abort and, once the transfer is
	// complete, the reassembly overhead before finalizeIn.
	stall      sim.Timer
	finalizing bool
	e2e        bool
}

func (im *inMigration) clock() *sim.Timer { return &im.stall }

// fragBit numbers fragment idx of data message type t in inMigration.got:
// code blocks (at most 255) from bit 0, then at most 4 heap, 4 stack and
// 15 reaction messages.
func fragBit(t wire.MsgType, idx uint8) int {
	return [...]int{wire.MsgCode: 0, wire.MsgHeap: 256, wire.MsgStack: 260, wire.MsgReaction: 264}[t] + int(idx)
}

// mark records fragment idx of type t received, reporting whether it was
// the first copy.
func (im *inMigration) mark(t wire.MsgType, idx uint8) bool {
	b := fragBit(t, idx)
	w, bit := b/64, uint64(1)<<(b%64)
	if im.got[w]&bit != 0 {
		return false
	}
	im.got[w] |= bit
	im.have[t-wire.MsgCode]++
	return true
}

// want returns how many messages of type t the state header announced.
func (im *inMigration) want(t wire.MsgType) uint8 {
	switch t {
	case wire.MsgCode:
		return im.st.NCode
	case wire.MsgHeap:
		return im.st.NHeap
	case wire.MsgStack:
		return im.st.NStack
	default:
		return im.st.NRxn
	}
}

// CodeBlockSize re-exports the wire block size for readability here.
const CodeBlockSize = wire.CodeBlockSize

// BlocksFor returns how many 22-byte blocks a program of n bytes needs.
// Since TinyOS has no dynamic memory allocation, the instruction manager
// hands out the minimum number of fixed blocks an agent's code needs
// (§3.2): "We found that 22 byte blocks are a good compromise between
// internal fragmentation and undue forward pointer overhead."
func BlocksFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + CodeBlockSize - 1) / CodeBlockSize
}

// reuse takes from a free list the longest-released record whose timer can
// run on c (see sim.Timer.Rebind), or returns nil. The list is kept in
// release order: the stale timer entries a transfer leaves behind drain
// within its longest timeout, so the oldest record is almost always free
// to move, and the scan rarely looks past it.
//
// A record can sit on the list with its timer armed: a mote that browns
// out inside a send (Crash, from the energy model's charge) releases the
// session record that was sending, and the sender then arms its timer.
// Rebind keeps such a record on the list until the timer has fired, and
// the firing finds the record released (its node nil) and does nothing.
func reuse[T interface{ clock() *sim.Timer }](free *[]T, c *sim.Ctx) (r T) {
	l := *free
	for i, cand := range l {
		if cand.clock().Rebind(c) {
			copy(l[i:], l[i+1:])
			var zero T
			l[len(l)-1] = zero
			*free = l[:len(l)-1]
			return cand
		}
	}
	return r
}

// newOut takes an outbound record from the shard's free list, or makes
// one and binds its timer.
func (n *Node) newOut() *outMigration {
	om := reuse(&n.outFree, n.sim)
	if om == nil {
		om = new(outMigration)
		om.timer.Init(n.sim, func() {
			if om.n != nil { // nil: released armed (see reuse)
				om.n.onOutTimer(om)
			}
		})
	}
	om.n = n
	return om
}

// releaseOut stops om's timer and returns it, wiped, to the free list.
func (n *Node) releaseOut(om *outMigration) {
	om.timer.Stop()
	*om = outMigration{
		timer: om.timer, // same address: queued entries still point at it
		buf:   om.buf[:0],
		metas: om.metas[:0],
	}
	n.outFree = append(n.outFree, om)
}

// newIn takes an inbound record from the shard's free list, or makes one
// and binds its timer.
func (n *Node) newIn() *inMigration {
	im := reuse(&n.inFree, n.sim)
	if im == nil {
		im = new(inMigration)
		im.stall.Init(n.sim, func() {
			if im.n != nil { // nil: released armed (see reuse)
				im.n.onStall(im)
			}
		})
	}
	im.n = n
	return im
}

// releaseIn stops im's timer and returns it, wiped, to the free list. The
// code buffer keeps its bytes: a transfer completes only once every block
// has been written over them.
func (n *Node) releaseIn(im *inMigration) {
	im.stall.Stop()
	clear(im.rxns)
	*im = inMigration{
		stall: im.stall, // same address: queued entries still point at it
		code:  im.code[:0],
		rxns:  im.rxns[:0],
	}
	n.inFree = append(n.inFree, im)
}

// startMigration handles EffectMigrate: the agent has popped its
// destination and must now move or clone there.
func (n *Node) startMigration(rec *record, out vm.Outcome) {
	kind, dest := out.Migrate, out.Dest

	if dest == n.loc {
		n.migrateToSelf(rec, kind)
		return
	}
	n.depart(rec, kind, dest, true)
}

// migrateToSelf implements the degenerate migration to the current node.
func (n *Node) migrateToSelf(rec *record, kind wire.MigKind) {
	switch kind {
	case wire.MigStrongMove, wire.MigWeakMove:
		if !kind.Strong() {
			rec.agent.Reset()
		}
		n.resumeAgent(rec, 1)
	case wire.MigStrongClone, wire.MigWeakClone:
		clone := n.newAgent()
		rec.agent.CloneInto(clone, n.NextAgentID())
		if !kind.Strong() {
			clone.Reset()
		}
		crec, err := n.admitRecord(clone)
		if err != nil {
			n.resumeAgent(rec, 0)
			return
		}
		if kind.Strong() {
			// The clone inherits the parent's registered reactions.
			for _, r := range n.registry.AppendForAgent(nil, rec.agent.ID) {
				r.AgentID = clone.ID
				_ = n.registry.Register(r)
			}
		}
		clone.Condition = 1
		crec.state = AgentReady
		n.enqueue(crec)
		n.noteClone(rec.agent.ID, clone.ID)
		n.noteArrival(clone.ID, kind, n.loc)
		n.resumeAgent(rec, 1)
	}
}

// depart suspends rec for a transfer to dest, the one way every agent
// leaves a node: it encodes the agent into an outbound record, opens it
// among the mote's sessions, reports the departure unless relaying
// (origin false), and arms the packaging delay, the CPU time packing
// costs before the first byte is sent.
func (n *Node) depart(rec *record, kind wire.MigKind, dest topology.Location, origin bool) {
	rec.state = AgentMigrating
	om := n.newOut()
	om.rec, om.kind, om.dest, om.origin = rec, kind, dest, origin
	n.encodeAgent(om, rec.agent)
	s := n.session()
	s.out = append(s.out, om)
	if origin && n.trace.MigrationStarted != nil {
		n.trace.MigrationStarted(n.loc, rec.agent.ID, kind, dest)
	}
	om.timer.Reset(DefaultMigSendOverhead)
}

// encodeAgent renders a's Figure 5 message sequence into om.buf, with
// sequence number zero until beginTransfer numbers the transfer. Weak
// operations carry only code (§2.2: "In a weak operation, only the code is
// transferred").
func (n *Node) encodeAgent(om *outMigration, a *vm.Agent) {
	var (
		pc    uint16
		cond  int16
		heap  [vm.HeapSlots]wire.HeapEntry
		nHeap int
		stack []tuplespace.Value
	)
	rxns := n.rxnBuf[:0]
	if om.kind.Strong() {
		pc, cond = a.PC, a.Condition
		for i, v := range a.Heap {
			if v.Kind != tuplespace.KindInvalid {
				heap[nHeap] = wire.HeapEntry{Addr: uint8(i), Value: v}
				nHeap++
			}
		}
		stack = a.StackSlice()
		rxns = n.registry.AppendForAgent(rxns, a.ID)
	}
	id := a.ID
	nCode := BlocksFor(len(a.Code))
	nHeapMsgs := (nHeap + wire.HeapVarsPerMsg - 1) / wire.HeapVarsPerMsg
	nStackMsgs := (len(stack) + wire.StackVarsPerMsg - 1) / wire.StackVarsPerMsg
	b := om.buf[:0]
	om.metas = om.metas[:0]
	done := func(t wire.MsgType, i int) {
		om.metas = append(om.metas, msgMeta{typ: t, idx: uint8(i), end: uint16(len(b))})
	}

	b = wire.StateMsg{
		AgentID: id, Kind: om.kind, Dest: om.dest,
		PC: pc, CodeLen: uint16(len(a.Code)), Cond: cond,
		SP: uint8(len(stack)), NCode: uint8(nCode), NHeap: uint8(nHeapMsgs),
		NRxn: uint8(len(rxns)), NStack: uint8(nStackMsgs),
	}.Append(b)
	done(wire.MsgState, 0)
	for i := 0; i < nCode; i++ {
		cm := wire.CodeMsg{AgentID: id, Index: uint8(i)}
		copy(cm.Block[:], a.Code[i*CodeBlockSize:])
		b = cm.Append(b)
		done(wire.MsgCode, i)
	}
	// Unencodable fragments are dropped; the invariants on heap values,
	// stack values and reaction templates prevent them.
	var err error
	for i := 0; i < nHeapMsgs; i++ {
		lo := i * wire.HeapVarsPerMsg
		hi := min(lo+wire.HeapVarsPerMsg, nHeap)
		if b, err = (wire.HeapMsg{AgentID: id, Index: uint8(i), Entries: heap[lo:hi]}).Append(b); err == nil {
			done(wire.MsgHeap, i)
		}
	}
	for i := 0; i < nStackMsgs; i++ {
		lo := i * wire.StackVarsPerMsg
		hi := min(lo+wire.StackVarsPerMsg, len(stack))
		if b, err = (wire.StackMsg{AgentID: id, Index: uint8(i), Values: stack[lo:hi]}).Append(b); err == nil {
			done(wire.MsgStack, i)
		}
	}
	for i, r := range rxns {
		if b, err = (wire.ReactionMsg{AgentID: id, Index: uint8(i), PC: r.PC, Template: r.Template}).Append(b); err == nil {
			done(wire.MsgReaction, i)
		}
	}
	om.buf = b
	clear(rxns)
	n.rxnBuf = rxns[:0]
}

// onOutTimer is om's timer: the end of the packaging delay, then each ack
// timeout.
func (n *Node) onOutTimer(om *outMigration) {
	if !om.started {
		n.beginTransfer(om)
		return
	}
	n.onAckTimeout(om)
}

// beginTransfer resolves the next hop and starts sending.
func (n *Node) beginTransfer(om *outMigration) {
	if om.rec == nil {
		n.releaseOut(om) // the mote crashed meanwhile (Crash)
		return
	}
	om.started = true
	n.migSeq++
	om.key = migKey{agentID: om.rec.agent.ID, seq: n.migSeq}
	hop, ok := n.net.NextHop(om.dest)
	if !ok {
		n.endOut(om, false)
		return
	}
	om.nextHop = hop
	for i := range om.metas {
		wire.SetSeq(om.msg(i), om.key.seq)
	}
	n.stats.MigrationsOut++
	n.sendCurrent(om)
}

// sendCurrent transmits the next unacknowledged message and arms the
// retransmission timer. In end-to-end mode all messages go out back to
// back in the network stack's routed envelopes, addressed to the final
// destination, and a single completion ack is awaited. The medium copies
// a payload before Send returns, so om.buf is free to reuse once the
// transfer ends.
func (n *Node) sendCurrent(om *outMigration) {
	if n.cfg.EndToEndMigration {
		// len is read each time round: a send that browns the mote out
		// releases om, emptying its messages.
		for i := 0; i < len(om.metas); i++ {
			_ = n.net.SendRouted(om.dest, radio.KindMigrateRouted, om.msg(i)) // a stall is the timeout's to report
		}
		om.timer.Reset(n.cfg.AckTimeout * 10)
		return
	}
	n.net.SendDirect(om.nextHop, radio.KindMigrate, om.msg(om.acked))
	om.timer.Reset(n.cfg.AckTimeout)
}

func (n *Node) onAckTimeout(om *outMigration) {
	if n.ses.outbound(om.key) != om {
		return
	}
	om.retries++
	if om.retries > n.cfg.MaxRetries {
		n.endOut(om, false)
		return
	}
	n.sendCurrent(om)
}

// recvMigrationAck is the sender half of hop-by-hop ack processing.
func (n *Node) recvMigrationAck(payload []byte) {
	ack, err := wire.DecodeAck(payload)
	if err != nil {
		return
	}
	om := n.ses.outbound(migKey{agentID: ack.AgentID, seq: ack.Seq})
	if om == nil {
		return
	}
	want := om.metas[om.acked]
	if ack.Of != want.typ || ack.Index != want.idx {
		return // stale ack for an already-confirmed message
	}
	om.timer.Stop()
	om.acked++
	om.retries = 0
	if om.acked == len(om.metas) {
		n.endOut(om, true)
		return
	}
	n.sendCurrent(om)
}

// recvCompletionAck concludes an end-to-end transfer: its destination
// routes back one completion ack once the whole agent is in.
func (n *Node) recvCompletionAck(payload []byte) {
	ack, err := wire.DecodeAck(payload)
	if err != nil || ack.Of != wire.MsgState || ack.Index != 0xff {
		return
	}
	if om := n.ses.outbound(migKey{agentID: ack.AgentID, seq: ack.Seq}); om != nil {
		n.endOut(om, true)
	}
}

// endOut concludes the outbound transfer om, counting and reporting its
// outcome. After a fully acknowledged clone the original keeps running
// with the condition set (§2.2); moves, injections and relayed agents
// leave this node entirely. A failed handoff follows the paper's failure
// semantics: "If the sender detects a failure, it resumes the agent
// running on the local machine with the condition code set to zero.
// While this may result in duplicate agents, the alternative is to
// simply kill the agent."
func (n *Node) endOut(om *outMigration, ok bool) {
	om.timer.Stop()
	remove(&n.ses.out, om)
	if ok {
		n.stats.MigrationsOK++
	} else {
		n.stats.MigrationsFail++
	}
	if n.trace.MigrationDone != nil {
		n.trace.MigrationDone(n.loc, om.key.agentID, om.kind, om.dest, ok)
	}
	rec, origin, isClone := om.rec, om.origin, om.kind.Clone()
	n.releaseOut(om)
	switch {
	case !ok:
		n.resumeAgent(rec, 0)
	case origin && isClone:
		n.resumeAgent(rec, 1)
	default:
		// The agent has left: its record, VM state and code go back to
		// the shard's free lists for the next agent to arrive.
		n.reclaim(rec.agent.ID)
	}
}

// --- receiver side -------------------------------------------------------

// acceptMigrationMsg files one migration message from from into its
// transfer: a one-hop frame's payload, or with e2e the body of a routed
// envelope from the agent's origin. Data fragments are written straight
// into the slots they fill.
func (n *Node) acceptMigrationMsg(payload []byte, from topology.Location, e2e bool) {
	t, err := wire.Type(payload)
	if err != nil {
		return
	}
	switch t {
	case wire.MsgState:
		if st, err := wire.DecodeState(payload); err == nil {
			n.recvState(st, from, e2e)
		}
	case wire.MsgCode:
		m, err := wire.DecodeCode(payload)
		if im, _ := n.fragment(err, m.AgentID, m.Seq, from, t, m.Index, e2e); im != nil {
			copy(im.code[int(m.Index)*CodeBlockSize:], m.Block[:])
			n.touchIn(im, t, m.Index)
		}
	case wire.MsgHeap:
		var buf [wire.HeapVarsPerMsg]wire.HeapEntry
		m, err := wire.DecodeHeapInto(buf[:0], payload)
		if im, fresh := n.fragment(err, m.AgentID, m.Seq, from, t, m.Index, e2e); im != nil {
			for _, e := range m.Entries {
				if int(e.Addr) < vm.HeapSlots && fresh {
					im.heap[e.Addr] = e.Value // the first copy only, as sent
				}
			}
			n.touchIn(im, t, m.Index)
		}
	case wire.MsgStack:
		var buf [wire.StackVarsPerMsg]tuplespace.Value
		m, err := wire.DecodeStackInto(buf[:0], payload)
		if im, _ := n.fragment(err, m.AgentID, m.Seq, from, t, m.Index, e2e); im != nil {
			copy(im.stack[int(m.Index)*wire.StackVarsPerMsg:], m.Values)
			n.touchIn(im, t, m.Index)
		}
	case wire.MsgReaction:
		m, err := wire.DecodeReaction(payload)
		if im, _ := n.fragment(err, m.AgentID, m.Seq, from, t, m.Index, e2e); im != nil {
			im.rxns[m.Index] = tuplespace.Reaction{AgentID: m.AgentID, Template: m.Template, PC: m.PC}
			n.touchIn(im, t, m.Index)
		}
	}
}

// fragment finds the open transfer a decoded data fragment belongs to and
// marks the fragment received, reporting whether it is the first copy. It
// returns nil for an undecodable fragment, for one with no open transfer
// (re-acking it if its transfer already finished), and for one whose
// index the state header does not announce: dropped unacked, it can never
// complete a transfer.
func (n *Node) fragment(err error, id, seq uint16, from topology.Location, t wire.MsgType, idx uint8, e2e bool) (im *inMigration, fresh bool) {
	if err != nil {
		return nil, false
	}
	key := inKey{migKey{id, seq}, from}
	i, open := n.ses.inbound(key)
	if !open {
		if n.ses.finalized(key) {
			n.ackIn(from, key, t, idx, e2e)
		}
		return nil, false
	}
	if im = n.ses.in[i]; idx >= im.want(t) {
		return nil, false
	}
	return im, im.mark(t, idx)
}

// consistent reports whether a state header describes a transfer the
// receiver can reassemble into fixed slots: exactly the code blocks
// CodeLen needs, a stack that fits and exactly the stack messages that
// cover it, and no more heap messages than the heap has slots for.
func consistent(st wire.StateMsg) bool {
	return int(st.NCode) == BlocksFor(int(st.CodeLen)) &&
		int(st.SP) <= vm.StackDepth &&
		int(st.NStack) == (int(st.SP)+wire.StackVarsPerMsg-1)/wire.StackVarsPerMsg &&
		int(st.NHeap) <= (vm.HeapSlots+wire.HeapVarsPerMsg-1)/wire.HeapVarsPerMsg
}

// recvState opens (or re-acks) an inbound transfer.
func (n *Node) recvState(st wire.StateMsg, from topology.Location, e2e bool) {
	key := inKey{migKey{st.AgentID, st.Seq}, from}
	if n.ses.finalized(key) {
		n.ackIn(from, key, wire.MsgState, 0, e2e)
		return
	}
	at, open := n.ses.inbound(key)
	if open {
		n.touchIn(n.ses.in[at], wire.MsgState, 0)
		return
	}
	if !consistent(st) {
		return // a malformed header; the sender times out and fails over
	}
	if n.hosted(st.AgentID) != nil && (st.Kind == wire.MigStrongMove || st.Kind == wire.MigWeakMove || st.Kind == wire.MigInject) {
		return // an agent with this identity already lives here
	}
	// Admission control: an open transfer counts as an agent slot and as
	// its code's instruction memory until it ends (slots, codeBlocks), so
	// an acked agent always fits. A refused transfer is ignored; the
	// sender times out and resumes it.
	if n.slots() >= n.cfg.MaxAgents || n.codeBlocks()+BlocksFor(int(st.CodeLen)) > n.cfg.CodeBlocks {
		return
	}
	im := n.newIn()
	im.key, im.st, im.e2e = key, st, e2e
	im.code = slices.Grow(im.code[:0], int(st.NCode)*CodeBlockSize)[:int(st.NCode)*CodeBlockSize]
	im.rxns = slices.Grow(im.rxns[:0], int(st.NRxn))[:st.NRxn]
	s := n.session()
	s.in = slices.Insert(s.in, at, im)
	n.touchIn(im, wire.MsgState, 0)
}

// touchIn acks a message, resets the stall timer, and finalizes when the
// transfer is complete.
func (n *Node) touchIn(im *inMigration, t wire.MsgType, idx uint8) {
	if !im.e2e {
		n.ackIn(im.key.from, im.key, t, idx, false)
	}
	if im.finalizing || n.life != NodeUp {
		return // or the ack browned the mote out, and Crash released im
	}
	im.stall.Reset(n.cfg.ReceiverStall)
	if n.inComplete(im) {
		// Reassembling and installing the agent costs CPU time.
		im.finalizing = true
		im.stall.Reset(DefaultMigRecvOverhead)
	}
}

// ackIn sends one acknowledgment back to the previous hop (or, end-to-end,
// routes the completion ack back to the origin).
func (n *Node) ackIn(to topology.Location, key inKey, t wire.MsgType, idx uint8, e2e bool) {
	ack := wire.AckMsg{AgentID: key.agentID, Seq: key.seq, Of: t, Index: idx}
	if e2e {
		ack.Of, ack.Index = wire.MsgState, 0xff
		n.tx = ack.Append(n.tx[:0])
		_ = n.net.SendRouted(to, radio.KindMigrateRoutedCtl, n.tx) // a lost ack times the origin out
		return
	}
	n.tx = ack.Append(n.tx[:0])
	n.net.SendDirect(to, radio.KindMigrateCtl, n.tx)
}

func (n *Node) inComplete(im *inMigration) bool {
	for t := wire.MsgCode; t <= wire.MsgReaction; t++ {
		if im.have[t-wire.MsgCode] < im.want(t) {
			return false
		}
	}
	return true
}

// onStall is im's timer: the stall abort while fragments are awaited, the
// end of the reassembly overhead once they are all in.
func (n *Node) onStall(im *inMigration) {
	if im.finalizing {
		n.finalizeIn(im)
		return
	}
	n.abortIn(im)
}

// abortIn implements the receiver stall abort (§3.2).
func (n *Node) abortIn(im *inMigration) {
	remove(&n.ses.in, im)
	n.releaseIn(im)
}

// finalizeIn instantiates the transferred agent, either to run here (final
// destination) or to be relayed onward.
func (n *Node) finalizeIn(im *inMigration) {
	defer n.releaseIn(im)
	s := n.ses
	i, ok := s.inbound(im.key)
	if !ok || s.in[i] != im {
		return // the node crashed during the reassembly delay
	}
	// Out of s.in the transfer no longer counts against the mote; the
	// agent admitRecord installs counts in its place.
	s.in = slices.Delete(s.in, i, i+1)
	s.done.note(im.key, struct{}{}, n.sim.Now(), 3*time.Second)
	if im.e2e {
		// End-to-end mode: one completion ack, routed back to the origin.
		n.ackIn(im.key.from, im.key, wire.MsgState, 0xff, true)
		if n.life != NodeUp {
			return // the ack browned the mote out unsent: the origin resumes the agent
		}
	}

	st := im.st
	atDest := n.loc == st.Dest
	id := st.AgentID
	isClone := st.Kind.Clone()
	if atDest && isClone {
		// "A cloned agent is assigned a new ID" (§3.3).
		id = n.NextAgentID()
	}
	if n.hosted(id) != nil {
		return // duplicate arrival of an agent that already lives here
	}

	// The code buffer becomes the agent's; a recycled agent's old buffer
	// goes back to im for the next transfer.
	a := n.newAgent()
	code := im.code[:st.CodeLen]
	im.code = a.Code[:0]
	*a = vm.Agent{ID: id, Code: code}
	if st.Kind.Strong() {
		a.PC = st.PC
		a.Condition = st.Cond
		_ = a.SetStack(im.stack[:st.SP]) // consistent bounds SP by the stack depth
		a.Heap = im.heap
	}

	rec, err := n.admitRecord(a)
	if err != nil {
		return // unreachable: the open transfer kept the slot and the blocks
	}
	// Restore the agent's reactions (§3.2: "When an agent arrives, it
	// automatically restores all of the agent's reactions").
	if st.Kind.Strong() {
		for _, r := range im.rxns {
			r.AgentID = id
			_ = n.registry.Register(r)
		}
	}

	if atDest {
		if !st.Kind.Strong() {
			a.Reset()
		}
		rec.state = AgentReady
		a.Condition = 1
		n.enqueue(rec)
		if isClone {
			n.noteClone(st.AgentID, id)
		}
		n.noteArrival(id, st.Kind, im.key.from)
		return
	}
	// Relay: keep the agent suspended and continue toward the final
	// destination, its in-flight registers as they arrived. If forwarding
	// fails the agent becomes resident here with condition zero
	// (duplicate-tolerant semantics).
	n.depart(rec, st.Kind, st.Dest, false)
}

// newRecord takes a record from the shard's free list, or makes one. Its
// wake timer, once bound, moves along to n's context (see reuse).
func (n *Node) newRecord() *record {
	rec := reuse(&n.recFree, n.sim)
	if rec == nil {
		rec = new(record)
	}
	rec.host = n
	return rec
}

// newAgent takes a recycled agent from the shard's free list, or makes
// one.
func (n *Node) newAgent() *vm.Agent {
	if a := pop(&n.agentFree); a != nil {
		return a
	}
	return new(vm.Agent)
}

// pop removes and returns the last entry of a free list, or nil.
func pop[T any](free *[]*T) *T {
	l := *free
	if len(l) == 0 {
		return nil
	}
	v := l[len(l)-1]
	l[len(l)-1] = nil
	*free = l[:len(l)-1]
	return v
}

// free returns a dead agent's record and VM state, wiped, to the shard's
// free lists once nothing can reach them any more. A dead record is out of
// its mote's agent list, and its transfer or remote operation has ended or
// was abandoned (detach, Crash); the run ring may still hold it, and then
// the ring frees it when it lets go (dequeueHead). Its wake timer is
// stopped, and a stale entry of it only keeps the record on its own
// mote's context (see reuse). The agent keeps its code buffer's capacity,
// and the record its reaction queue's and blocking template's, for the
// next agent.
func (n *Node) free(rec *record) {
	if rec.state != AgentDead || rec.queued {
		return
	}
	n.freeAgent(rec.agent)
	clear(rec.pending)
	*rec = record{
		wake:      rec.wake, // same address: queued entries still point at it
		pending:   rec.pending[:0],
		blockTmpl: tuplespace.Template{Fields: rec.blockTmpl.Fields[:0]},
	}
	n.recFree = append(n.recFree, rec)
}

// freeAgent returns a, wiped, to the shard's free list.
func (n *Node) freeAgent(a *vm.Agent) {
	*a = vm.Agent{Code: a.Code[:0]}
	n.agentFree = append(n.agentFree, a)
}

// admitRecord installs an agent without enqueueing it; callers decide when
// it becomes runnable. It refuses the agent when the mote's agent slots
// are taken, when an agent with its ID is already hosted, or when its code
// does not fit the instruction memory left, in that order; the slots and
// blocks in use count the open inbound transfers too (slots, codeBlocks).
// An agent it refuses goes back to the shard's free list.
func (n *Node) admitRecord(a *vm.Agent) (*record, error) {
	i, dup := n.agentIndex(a.ID)
	var err error
	if n.slots() >= n.cfg.MaxAgents {
		err = fmt.Errorf("%w: %d hosted", ErrAgentLimit, len(n.agents))
	} else if dup {
		err = fmt.Errorf("core: agent %d already hosted", a.ID)
	} else if need, free := BlocksFor(len(a.Code)), n.cfg.CodeBlocks-n.codeBlocks(); need > free {
		err = fmt.Errorf("%w: need %d blocks, %d free", ErrNoInstrMem, need, free)
	}
	if err != nil {
		n.freeAgent(a)
		return nil, err
	}
	rec := n.newRecord()
	rec.agent, rec.state = a, AgentMigrating
	if n.cfg.Exec != ExecStep {
		rec.prog = progCache.Get(a.Code)
	}
	n.agents = append(n.agents, nil)
	copy(n.agents[i+1:], n.agents[i:])
	n.agents[i] = rec
	n.stats.AgentsHosted++
	n.replicaMuted(func() {
		_ = n.space.Out(n.presence(a.ID))
	})
	return rec, nil
}

// presence returns the <"agt", id> tuple that announces a hosted agent,
// built in the shard's scratch: Space.Out copies it into the arena, and
// the next presence overwrites it.
func (n *Node) presence(id uint16) tuplespace.Tuple {
	n.agt = [2]tuplespace.Value{tuplespace.Str("agt"), tuplespace.AgentIDV(id)}
	return tuplespace.Tuple{Fields: n.agt[:]}
}
