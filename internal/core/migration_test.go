package core

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/network"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sensor"
	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
	"github.com/agilla-go/agilla/internal/wire"
)

// severable arms d's medium to drop every frame on the directed link
// from -> to once the returned flag is set, for failure injection
// mid-test.
func severable(d *Deployment, from, to topology.Location) *bool {
	cut := new(bool)
	d.Medium.Drop = func(f radio.Frame, at topology.Location) bool {
		return *cut && f.Src == from && at == to
	}
	return cut
}

// markerAgent outs <val> at its current node then halts.
func markerSrc(val int) string {
	return `
		pushcl ` + itoa(val) + `
		pushc 1
		out
		halt
	`
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

func hasMarker(n *Node, val int) bool {
	_, ok := n.Space().Rdp(tuplespace.Tmpl(tuplespace.Int(int16(val))))
	return ok
}

// openIn and openOut return a mote's open transfers: none before its
// first session.
func openIn(n *Node) []*inMigration {
	if n.ses == nil {
		return nil
	}
	return n.ses.in
}

func openOut(n *Node) []*outMigration {
	if n.ses == nil {
		return nil
	}
	return n.ses.out
}

func TestSmoveOneHop(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	dst := d.Node(topology.Loc(2, 1))

	// Carry heap state across a strong move to verify it travels.
	code := asm.MustAssemble(`
		pushcl 1234
		setvar 3
		pushloc 2 1
		smove
		getvar 3
		pushc 1
		out      // <1234> at the destination
		halt
	`)
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 3*time.Second)

	if !hasMarker(dst, 1234) {
		t.Error("heap value did not survive the strong move")
	}
	if src.NumAgents() != 0 {
		t.Error("agent still on source after move")
	}
	if dst.NumAgents() != 0 {
		t.Error("agent should have halted at destination")
	}
	if src.Stats().MigrationsOK != 1 {
		t.Errorf("MigrationsOK = %d", src.Stats().MigrationsOK)
	}
}

func TestWmoveResetsState(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	dst := d.Node(topology.Loc(2, 1))

	// After a weak move the agent restarts from instruction 0 with a
	// cleared heap: first run takes the move branch; the restarted run
	// sees heap[0] empty (invalid kind, not a value) and falls through...
	// Simplest observable: the agent outs its heap var; after a weak
	// move the out value is the reset (invalid→type-mismatch would kill
	// it), so instead test with the PC: code outs <77> at address 0 and
	// moves only if a marker is absent.
	code := asm.MustAssemble(`
		     pushcl 77
		     pushc 1
		     inp          // marker already present? (sets condition)
		     rjumpc DONE
		     pushcl 77
		     pushc 1
		     out          // leave marker here
		     pushloc 2 1
		     wmove        // weak: restart from 0 at (2,1)
		     halt
		DONE pushcl 88
		     pushc 1
		     out
		     halt
	`)
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 3*time.Second)

	if !hasMarker(src, 77) {
		t.Error("marker missing at source")
	}
	// At the destination the agent restarted from 0: no marker there yet,
	// so it outs 77 and then wmoves to (2,1) — itself — restarting once
	// more; this time inp consumes the 77 marker and the agent outs 88.
	// Only the 88 marker survives at the destination.
	if !hasMarker(dst, 88) {
		t.Error("weak move did not restart the agent from instruction 0")
	}
	if hasMarker(dst, 77) {
		t.Error("second restart should have consumed the 77 marker via inp")
	}
}

func TestScloneBothRun(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	dst := d.Node(topology.Loc(2, 1))

	var arrivals []uint16
	d.Trace.AgentArrived = func(_ topology.Location, id uint16, kind wire.MigKind, _ topology.Location) {
		if kind == wire.MigStrongClone {
			arrivals = append(arrivals, id)
		}
	}

	code := asm.MustAssemble(`
		pushloc 2 1
		sclone
		loc        // both the original and the clone out their location
		pushc 1
		out
		halt
	`)
	origID, err := src.CreateAgent(code)
	if err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 3*time.Second)

	if _, ok := src.Space().Rdp(tuplespace.Tmpl(tuplespace.LocV(topology.Loc(1, 1)))); !ok {
		t.Error("original did not resume after sclone")
	}
	if _, ok := dst.Space().Rdp(tuplespace.Tmpl(tuplespace.LocV(topology.Loc(2, 1)))); !ok {
		t.Error("clone did not run at destination")
	}
	if len(arrivals) != 1 {
		t.Fatalf("clone arrivals = %v", arrivals)
	}
	if arrivals[0] == origID {
		t.Error("clone must get a fresh ID (§3.3)")
	}
}

func TestCloneToSelf(t *testing.T) {
	d := quietDeployment(t, 1, 1)
	n := d.Node(topology.Loc(1, 1))

	code := asm.MustAssemble(`
		pushloc 1 1
		sclone
		aid
		pushc 1
		out     // both siblings out their IDs
		halt
	`)
	if _, err := n.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, time.Second)
	ids := n.Space().Count(tuplespace.Tmpl(tuplespace.TypeV(tuplespace.TypeAgentID)))
	if ids != 2 {
		t.Errorf("found %d ID tuples, want 2 (original + self-clone)", ids)
	}
}

func TestMultiHopMigration(t *testing.T) {
	d := quietDeployment(t, 5, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	dst := d.Node(topology.Loc(5, 1))

	code := asm.MustAssemble(`
		pushloc 5 1
		smove
		` + markerSrc(31))
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 5*time.Second)

	if !hasMarker(dst, 31) {
		t.Error("agent did not reach (5,1) across 4 hops")
	}
	// Intermediate nodes must not retain the agent.
	for x := int16(1); x <= 4; x++ {
		if n := d.Node(topology.Loc(x, 1)); n.NumAgents() != 0 {
			t.Errorf("agent stuck at (%d,1)", x)
		}
	}
}

func TestMigrationFailureResumesLocally(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	// Kill the destination outright: frames to it vanish.
	d.Node(topology.Loc(2, 1)).Stop()

	// On failure the agent resumes locally with condition 0 and outs 0;
	// on (impossible) success it would out 1 at the destination.
	code := asm.MustAssemble(`
		     pushloc 2 1
		     smove
		     rjumpc OK    // condition=1 → migrated (not reachable here)
		     pushcl 500
		     pushc 1
		     out          // failure marker at source
		     halt
		OK   halt
	`)
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	// 5 sends × 0.1 s timeouts plus slack.
	runFor(t, d, 3*time.Second)

	if !hasMarker(src, 500) {
		t.Error("agent did not resume locally with condition 0 after failed migration")
	}
	if src.Stats().MigrationsFail != 1 {
		t.Errorf("MigrationsFail = %d", src.Stats().MigrationsFail)
	}
}

func TestMigrationDuplicateOnLostAcks(t *testing.T) {
	// Sever the ack direction only: the receiver gets every message and
	// instantiates the agent, but the sender never learns and resumes it
	// locally — the paper's duplicate-preferred-over-loss semantics.
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	dst := d.Node(topology.Loc(2, 1))

	// Let the transfer proceed normally until the last data message is on
	// the air, then sever the ack direction: the receiver completes but
	// the final ack never reaches the sender.
	cut := severable(d, topology.Loc(2, 1), topology.Loc(1, 1))
	migrateMsgs := 0
	d.Medium.Trace = func(f radio.Frame, to topology.Location, delivered bool) {
		if f.Kind == radio.KindMigrate && delivered {
			migrateMsgs++
			if migrateMsgs == 2 { // state + single code block
				*cut = true
			}
		}
	}

	code := asm.MustAssemble(`
		pushloc 2 1
		smove
		` + markerSrc(600))
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 5*time.Second)

	if !hasMarker(src, 600) {
		t.Error("sender copy did not resume locally")
	}
	if !hasMarker(dst, 600) {
		t.Error("receiver copy did not run (it had all the messages)")
	}
}

func TestReceiverStallAborts(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	dst := d.Node(topology.Loc(2, 1))

	// A fat agent needs several messages; cut the forward link as soon as
	// the first message lands so the transfer stalls mid-flight.
	cut := severable(d, topology.Loc(1, 1), topology.Loc(2, 1))
	d.Medium.Trace = func(f radio.Frame, to topology.Location, delivered bool) {
		if f.Kind == radio.KindMigrate && delivered {
			*cut = true // let this first message through, then sever
		}
	}
	code := asm.MustAssemble(`
		pushcl 1111
		setvar 0
		pushcl 2222
		setvar 1
		pushloc 2 1
		smove
		halt
	`)
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 5*time.Second)

	if len(openIn(dst)) != 0 {
		t.Error("stalled inbound transfer not aborted")
	}
	if dst.slots() != 0 || dst.codeBlocks() != 0 {
		t.Errorf("the aborted transfer still counts: %d slots, %d code blocks", dst.slots(), dst.codeBlocks())
	}
	if dst.NumAgents() != 0 {
		t.Error("partial agent materialized")
	}
	// Sender resumed the agent locally (failure path).
	if src.Stats().MigrationsFail != 1 {
		t.Errorf("MigrationsFail = %d", src.Stats().MigrationsFail)
	}
}

func TestReactionsTravelWithAgent(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	dst := d.Node(topology.Loc(2, 1))

	// Register a reaction, move, then wait at the new node; the reaction
	// must be restored there (§3.2).
	code := asm.MustAssemble(`
		     pusht VALUE
		     pushc 1
		     pushcl HIT
		     regrxn
		     pushloc 2 1
		     smove
		     wait
		HIT  pop
		     pop
		     pushcl 909
		     pushc 1
		     out
		     halt
	`)
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 3*time.Second)

	if src.Registry().Len() != 0 {
		t.Error("reaction left behind on source")
	}
	if dst.Registry().Len() != 1 {
		t.Fatal("reaction not restored at destination")
	}
	// Insert a matching tuple at the destination.
	if _, err := dst.CreateAgent(asm.MustAssemble("pushc 4\npushc 1\nout\nhalt")); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 2*time.Second)
	if !hasMarker(dst, 909) {
		t.Error("restored reaction did not fire")
	}
}

func TestInjectAgent(t *testing.T) {
	d := quietDeployment(t, 3, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	dst := d.Node(topology.Loc(3, 1))

	var arrived bool
	d.Trace.AgentArrived = func(node topology.Location, _ uint16, kind wire.MigKind, _ topology.Location) {
		if node == topology.Loc(3, 1) && kind == wire.MigInject {
			arrived = true
		}
	}
	if _, err := d.Base.InjectAgent(asm.MustAssemble(markerSrc(777)), topology.Loc(3, 1)); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 5*time.Second)

	if !arrived {
		t.Error("injection arrival not traced")
	}
	if !hasMarker(dst, 777) {
		t.Error("injected agent did not run at (3,1)")
	}
	if d.Base.NumAgents() != 0 {
		t.Error("injection shell still occupies the base station")
	}
}

func TestEndToEndMigrationAblation(t *testing.T) {
	// The end-to-end variant works over a clean one-hop link...
	params := radio.ZeroLoss()
	d, err := NewDeployment(DeploymentSpec{
		Layout: topology.GridLayout(2, 1), Seed: 9, Radio: &params,
		Node: Config{EndToEndMigration: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	dst := d.Node(topology.Loc(2, 1))
	if _, err := src.CreateAgent(asm.MustAssemble(`
		pushloc 2 1
		smove
		` + markerSrc(42))); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 5*time.Second)
	if !hasMarker(dst, 42) {
		t.Error("end-to-end migration failed on a clean link")
	}
}

// TestEndToEndMigrationAcrossRelays: the end-to-end variant rides the
// network stack's routed envelopes, so a 3-hop move is forwarded by the
// relays' stacks, which never open a transfer, and only the final
// destination acks — once, routed back to the origin.
func TestEndToEndMigrationAcrossRelays(t *testing.T) {
	params := radio.ZeroLoss()
	d, err := NewDeployment(DeploymentSpec{
		Layout: topology.GridLayout(4, 1), Seed: 9, Radio: &params,
		Node: Config{EndToEndMigration: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src, relay, dst := d.Node(topology.Loc(1, 1)), d.Node(topology.Loc(2, 1)), d.Node(topology.Loc(4, 1))
	var done, ok bool
	d.Trace.MigrationDone = func(node topology.Location, _ uint16, _ wire.MigKind, dest topology.Location, success bool) {
		if node == src.Loc() && dest == dst.Loc() {
			done, ok = true, success
		}
	}
	if _, err := src.CreateAgent(asm.MustAssemble(`
		pushloc 4 1
		smove
		` + markerSrc(43))); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 5*time.Second)
	if !hasMarker(dst, 43) {
		t.Error("end-to-end migration did not arrive 3 hops away")
	}
	if !done || !ok {
		t.Errorf("sender's MigrationDone: reported %v, ok %v; want an ok report", done, ok)
	}
	if got := relay.Net().Stats().Forwarded; got == 0 {
		t.Error("the relay's network stack forwarded nothing")
	}
	if relay.Stats().AgentsHosted != 0 {
		t.Errorf("the relay hosted %d agents; end-to-end transfers pass through", relay.Stats().AgentsHosted)
	}
}

// TestFragmentIndexesBoundTheTransfer: a transfer completes only when
// every fragment its state header announces has arrived. A fragment whose
// index the header does not announce is dropped, so it can neither stand
// in for a missing block nor leave the agent with a zeroed one, and a
// header whose counts do not describe its own agent opens no transfer.
func TestFragmentIndexesBoundTheTransfer(t *testing.T) {
	code := asm.MustAssemble(`
		pushc 1
		pushc 2
		pushc 3
		pushc 4
		pushc 5
		pushc 6
		pushc 7
		pushc 8
		pushc 9
		pushc 10
		pushc 11
		pushc 12
		wait
	`)
	if BlocksFor(len(code)) != 2 {
		t.Fatalf("test program spans %d blocks, want 2", BlocksFor(len(code)))
	}
	from, at := topology.Loc(1, 1), topology.Loc(2, 1)
	const id = 0x0107
	header := wire.StateMsg{AgentID: id, Seq: 1, Kind: wire.MigStrongMove, Dest: at,
		CodeLen: uint16(len(code)), SP: 2, NCode: 2, NStack: 1}
	block := func(i uint8) []byte {
		m := wire.CodeMsg{AgentID: id, Seq: 1, Index: i}
		copy(m.Block[:], code[min(int(i)*CodeBlockSize, len(code)):])
		return m.Append(nil)
	}
	stack := func(i uint8) []byte {
		b, err := wire.StackMsg{AgentID: id, Seq: 1, Index: i,
			Values: []tuplespace.Value{tuplespace.Int(40), tuplespace.Int(41)}}.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	with := func(edit func(*wire.StateMsg)) []byte {
		st := header
		edit(&st)
		return st.Append(nil)
	}

	for _, tc := range []struct {
		name   string
		frames [][]byte
		open   bool // a transfer is open after the frames
	}{
		{"code index past NCode", [][]byte{header.Append(nil), block(0), block(7), stack(0)}, true},
		{"stack index past NStack", [][]byte{header.Append(nil), block(0), block(1), stack(3)}, true},
		{"fewer blocks than CodeLen needs", [][]byte{with(func(st *wire.StateMsg) { st.NCode = 1 })}, false},
		{"stack messages short of SP", [][]byte{with(func(st *wire.StateMsg) { st.SP = 5 })}, false},
		{"SP beyond the stack", [][]byte{with(func(st *wire.StateMsg) { st.SP, st.NStack = 17, 5 })}, false},
		{"more heap messages than slots", [][]byte{with(func(st *wire.StateMsg) { st.NHeap = 4 })}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := quietDeployment(t, 2, 1)
			if err := d.WarmUp(); err != nil {
				t.Fatal(err)
			}
			n := d.Node(at)
			for _, p := range tc.frames {
				n.ReceiveFrame(radio.Frame{Src: from, Dst: at, Kind: radio.KindMigrate, Payload: p})
			}
			if got := len(openIn(n)) == 1; got != tc.open {
				t.Fatalf("transfer open = %v, want %v", got, tc.open)
			}
			for _, im := range openIn(n) {
				if im.finalizing {
					t.Fatal("an unannounced fragment completed the transfer")
				}
			}
			runFor(t, d, time.Second)
			if h := n.Stats().AgentsHosted; h != 0 {
				t.Fatalf("%d agents installed from an incomplete or malformed transfer", h)
			}
			if len(openIn(n)) != 0 || n.slots() != 0 {
				t.Fatalf("transfer not released: %d open, %d slots in use", len(openIn(n)), n.slots())
			}
		})
	}

	// The announced fragments alone complete it, with every block intact.
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	n := d.Node(at)
	for _, p := range [][]byte{header.Append(nil), block(0), block(7), stack(3), block(1), stack(0)} {
		n.ReceiveFrame(radio.Frame{Src: from, Dst: at, Kind: radio.KindMigrate, Payload: p})
	}
	runFor(t, d, time.Second)
	a, ok := n.Agent(id)
	if !ok {
		t.Fatal("complete transfer did not install the agent")
	}
	if string(a.Code) != string(code) {
		t.Fatalf("code = %x, want %x", a.Code, code)
	}
}

// TestPooledRecordsAreSafeToReuse: an inbound record comes back wiped from
// a stalled transfer, and the next transfer that takes it sees none of the
// last one's blocks, stack slots or reaction bits. A record is moved to
// another mote only once no entry of its timer is queued; on its own mote
// it is reused at once, and the stale entry its last transfer left behind
// never fires into the new one.
func TestPooledRecordsAreSafeToReuse(t *testing.T) {
	d := quietDeployment(t, 3, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	from, at, other := topology.Loc(1, 1), topology.Loc(2, 1), topology.Loc(3, 1)
	n := d.Node(at)
	code := asm.MustAssemble(strings.Repeat("pushc 1\npop\n", 8) + "wait")
	const id = 0x0109
	send := func(to *Node, p []byte) {
		to.ReceiveFrame(radio.Frame{Src: from, Dst: to.Loc(), Kind: radio.KindMigrate, Payload: p})
	}
	// A strong move of the program above with a five-slot stack (two stack
	// messages) and one reaction: nine fragments after the header.
	frames := func(seq uint16, dest topology.Location) (header []byte, blocks, stack [2][]byte, rxn []byte) {
		header = wire.StateMsg{AgentID: id, Seq: seq, Kind: wire.MigStrongMove, Dest: dest,
			CodeLen: uint16(len(code)), SP: 5, NCode: 2, NStack: 2, NRxn: 1}.Append(nil)
		for i := range blocks {
			m := wire.CodeMsg{AgentID: id, Seq: seq, Index: uint8(i)}
			copy(m.Block[:], code[i*CodeBlockSize:])
			blocks[i] = m.Append(nil)
		}
		for i, vs := range [][]tuplespace.Value{
			{tuplespace.Int(1), tuplespace.Int(2), tuplespace.Int(3), tuplespace.Int(4)},
			{tuplespace.Int(5)},
		} {
			b, err := wire.StackMsg{AgentID: id, Seq: seq, Index: uint8(i), Values: vs}.Append(nil)
			if err != nil {
				t.Fatal(err)
			}
			stack[i] = b
		}
		rxn, err := wire.ReactionMsg{AgentID: id, Seq: seq, PC: 4,
			Template: tuplespace.Tmpl(tuplespace.TypeV(tuplespace.TypeValue))}.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		return header, blocks, stack, rxn
	}
	inOpen := func() *inMigration {
		t.Helper()
		if len(openIn(n)) != 1 {
			t.Fatalf("%d transfers open, want 1", len(openIn(n)))
		}
		return openIn(n)[0]
	}

	// Transfer 1 delivers block 0, stack message 0 and the reaction, then
	// stalls and is aborted.
	h, blocks, stack, rxn := frames(1, at)
	send(n, h)
	first := inOpen()
	send(n, blocks[0])
	send(n, stack[0])
	send(n, rxn)
	runFor(t, d, time.Second)
	if len(openIn(n)) != 0 || len(n.inFree) != 1 || n.inFree[0] != first {
		t.Fatalf("stalled record not released: %d open, free list %v", len(openIn(n)), n.inFree)
	}
	if first.got != [5]uint64{} || first.have != [4]uint8{} || first.heap != [vm.HeapSlots]tuplespace.Value{} ||
		first.stack != [vm.StackDepth]tuplespace.Value{} || len(first.rxns) != 0 || first.n != nil {
		t.Fatalf("released record not wiped: got %x have %v heap %v stack %v rxns %v", first.got, first.have, first.heap, first.stack, first.rxns)
	}

	// Transfer 2 takes the same record and gets only the fragments transfer
	// 1 missed: a stale bit would complete it.
	h, blocks, stack, rxn = frames(2, at)
	send(n, h)
	if inOpen() != first {
		t.Fatal("the next transfer did not reuse the released record")
	}
	send(n, blocks[1])
	send(n, stack[1])
	if first.finalizing {
		t.Fatal("fragments of the aborted transfer counted toward the next one")
	}
	send(n, blocks[0])
	send(n, stack[0])
	send(n, rxn)
	if !first.finalizing {
		t.Fatal("transfer incomplete after every fragment arrived")
	}
	// Finalizing re-armed the timer for the reassembly delay, so the stall
	// deadline armed just before it is a stale entry, due in 0.25 s. The
	// kernel drops a stale entry early once it reaches the head of the
	// heap; an earlier harness event keeps this one queued.
	d.Sim.Context(sim.RootKey).Schedule(200*time.Millisecond, func() {})
	runFor(t, d, 100*time.Millisecond)
	a, ok := n.Agent(id)
	if !ok || string(a.Code) != string(code) || a.StackDepthUsed() != 5 || n.Registry().Len() != 1 {
		t.Fatalf("agent = %+v (hosted %v), %d reactions", a, ok, n.Registry().Len())
	}
	if !n.KillAgent(id) {
		t.Fatal("agent gone before it was killed")
	}

	// Another mote cannot take the record while that stale entry is queued.
	h, _, _, _ = frames(3, other)
	send(d.Node(other), h)
	if len(n.inFree) != 1 || n.inFree[0] != first {
		t.Fatal("record with a queued timer entry moved to another mote")
	}
	// Its own mote can: transfer 4 reuses it before the stale entry is due,
	// and stays open past that instant until its own stall deadline.
	h, blocks, _, _ = frames(4, at)
	send(n, h)
	if inOpen() != first {
		t.Fatal("the record was not reused on its own mote")
	}
	send(n, blocks[0])
	runFor(t, d, 200*time.Millisecond) // past the stale deadline, short of the new one
	if inOpen() != first || first.finalizing {
		t.Fatal("a stale timer entry fired into the transfer that reused the record")
	}
	runFor(t, d, 100*time.Millisecond)
	if len(openIn(n)) != 0 {
		t.Fatal("reused transfer did not stall out at its own deadline")
	}
}

// TestCrashReportsFinalizingDeathsInKeyOrder: a mote that crashes while
// two complete inbound transfers wait out their reassembly delay reports
// both agents dead in transfer-key order, whatever order the transfers
// opened in, and their records still come back once the delay ends.
func TestCrashReportsFinalizingDeathsInKeyOrder(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	from, at := topology.Loc(1, 1), topology.Loc(2, 1)
	n := d.Node(at)
	code := asm.MustAssemble("halt")
	ids := []uint16{0x0109, 0x0105} // opened in reverse key order
	for _, id := range ids {
		st := wire.StateMsg{AgentID: id, Seq: 1, Kind: wire.MigStrongMove, Dest: at,
			CodeLen: uint16(len(code)), NCode: uint8(BlocksFor(len(code)))}
		cm := wire.CodeMsg{AgentID: id, Seq: 1}
		copy(cm.Block[:], code)
		for _, p := range [][]byte{st.Append(nil), cm.Append(nil)} {
			n.ReceiveFrame(radio.Frame{Src: from, Dst: at, Kind: radio.KindMigrate, Payload: p})
		}
	}
	in := openIn(n)
	if len(in) != 2 || !in[0].finalizing || !in[1].finalizing {
		t.Fatalf("want two transfers in their finalize delay, have %d", len(in))
	}

	var died []uint16
	d.Trace.AgentDied = func(loc topology.Location, id uint16, err error) {
		if loc != at || !errors.Is(err, ErrNodeDown) {
			t.Errorf("agent %#x died at %v with %v, want %v with ErrNodeDown", id, loc, err, at)
		}
		died = append(died, id)
	}
	n.Stop()
	if want := []uint16{0x0105, 0x0109}; !slices.Equal(died, want) {
		t.Fatalf("deaths reported as %#x, want %#x", died, want)
	}
	if got := n.Stats().AgentsDied; got != 2 {
		t.Fatalf("AgentsDied = %d, want 2", got)
	}
	runFor(t, d, time.Second)
	if len(n.inFree) != 2 || n.NumAgents() != 0 || len(died) != 2 {
		t.Fatalf("after the delay: %d records released, %d agents hosted, %d deaths", len(n.inFree), n.NumAgents(), len(died))
	}
}

// hopRig drives one mote of a quiet 3×1 line through strong-move hops
// from (1,1), fragment by fragment, with every frame it sends dropped
// before the radio copies it: what is counted is the mote's own work.
type hopRig struct {
	t        *testing.T
	d        *Deployment
	n        *Node
	from, to topology.Location // previous hop; the agent's destination
	code     []byte
	seq      uint16
	buf      []byte
}

const hopAgent = 0x0203

func newHopRig(t *testing.T, dest topology.Location) *hopRig {
	params := radio.ZeroLoss()
	d, err := NewDeployment(DeploymentSpec{
		Layout: topology.GridLayout(3, 1), Seed: 5, Radio: &params, Field: sensor.Constant(0),
		// One beacon round for the warm-up, then silence.
		Node: Config{Network: network.Config{BeaconEvery: time.Hour, ExpireAfter: 10 * time.Hour}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	d.Medium.Drop = func(radio.Frame, topology.Location) bool { return true }
	return &hopRig{
		t: t, d: d, n: d.Node(topology.Loc(2, 1)), from: topology.Loc(1, 1), to: dest,
		// Two code blocks; on arrival the agent restores a five-slot stack
		// and a heap variable, then halts.
		code: asm.MustAssemble(strings.Repeat("pushc 1\npop\n", 8) + "halt"),
		buf:  make([]byte, 0, 64),
	}
}

func (r *hopRig) deliver(kind radio.FrameKind, src topology.Location, p []byte) {
	r.n.ReceiveFrame(radio.Frame{Src: src, Dst: r.n.Loc(), Kind: kind, Payload: p})
}

// hop delivers one transfer, lets the mote finalize it and, when it is a
// relay, acknowledges every message it forwards.
func (r *hopRig) hop() {
	r.seq++
	id, seq := uint16(hopAgent), r.seq
	r.buf = wire.StateMsg{AgentID: id, Seq: seq, Kind: wire.MigStrongMove, Dest: r.to,
		CodeLen: uint16(len(r.code)), SP: 5, NCode: 2, NHeap: 1, NStack: 2}.Append(r.buf[:0])
	r.deliver(radio.KindMigrate, r.from, r.buf)
	for i := uint8(0); i < 2; i++ {
		m := wire.CodeMsg{AgentID: id, Seq: seq, Index: i}
		copy(m.Block[:], r.code[int(i)*CodeBlockSize:])
		r.buf = m.Append(r.buf[:0])
		r.deliver(radio.KindMigrate, r.from, r.buf)
	}
	heap := [1]wire.HeapEntry{{Addr: 3, Value: tuplespace.Int(77)}}
	r.buf, _ = wire.HeapMsg{AgentID: id, Seq: seq, Entries: heap[:]}.Append(r.buf[:0])
	r.deliver(radio.KindMigrate, r.from, r.buf)
	stack := [5]tuplespace.Value{tuplespace.Int(1), tuplespace.Int(2), tuplespace.Int(3), tuplespace.Int(4), tuplespace.Int(5)}
	for i := uint8(0); i < 2; i++ {
		r.buf, _ = wire.StackMsg{AgentID: id, Seq: seq, Index: i, Values: stack[4*i : min(4*i+4, 5)]}.Append(r.buf[:0])
		r.deliver(radio.KindMigrate, r.from, r.buf)
	}
	if err := r.d.Sim.Run(r.d.Sim.Now() + DefaultMigRecvOverhead + DefaultMigSendOverhead); err != nil {
		r.t.Fatal(err)
	}
	// Acking a transfer to its end closes it, so walk a copy.
	var open [4]*outMigration
	for _, om := range open[:copy(open[:], openOut(r.n))] {
		for om.started && r.n.ses.outbound(om.key) == om {
			want := om.metas[om.acked]
			r.buf = wire.AckMsg{AgentID: id, Seq: om.key.seq, Of: want.typ, Index: want.idx}.Append(r.buf[:0])
			r.deliver(radio.KindMigrateCtl, r.to, r.buf)
		}
	}
}

// TestHopAllocatesNothing pins a warm strong-move hop's allocations at the
// mote it crosses: none at a relay, and none at the destination either,
// where the agent runs and halts. Each arrival takes the record, the VM
// state and the code buffer the last agent left in the shard's free
// lists.
func TestHopAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		name string
		dest topology.Location
		most float64
	}{
		{"relay", topology.Loc(3, 1), 0},
		{"destination", topology.Loc(2, 1), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newHopRig(t, tc.dest)
			// Warm past the 3 s duplicate-suppression window, so the done
			// log has reached its steady length.
			for i := 0; i < 40; i++ {
				r.hop()
			}
			before := r.n.Stats()
			got := testing.AllocsPerRun(50, r.hop)
			t.Logf("%s hop: %.0f allocations", tc.name, got)
			after := r.n.Stats()
			if hosted := after.AgentsHosted - before.AgentsHosted; hosted != 51 {
				t.Fatalf("%d agents arrived in 51 hops", hosted)
			}
			if tc.dest != r.n.Loc() && after.MigrationsOK-before.MigrationsOK != 51 {
				t.Fatalf("%d of 51 relays completed", after.MigrationsOK-before.MigrationsOK)
			}
			if got > tc.most {
				t.Fatalf("a %s hop allocates %.0f objects, want <= %.0f", tc.name, got, tc.most)
			}
			if r.n.NumAgents() != 0 || len(openIn(r.n)) != 0 || len(openOut(r.n)) != 0 {
				t.Fatalf("hop left state behind: %d agents, %d in, %d out", r.n.NumAgents(), len(openIn(r.n)), len(openOut(r.n)))
			}
		})
	}
}
