package core

import (
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sensor"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/wire"
)

// blockableTopo wraps a topology with a mutable set of severed directed
// links, for failure injection mid-test.
type blockableTopo struct {
	inner   topology.Topology
	blocked map[[2]topology.Location]bool
}

func newBlockableTopo(inner topology.Topology) *blockableTopo {
	return &blockableTopo{inner: inner, blocked: make(map[[2]topology.Location]bool)}
}

func (b *blockableTopo) Block(from, to topology.Location) {
	b.blocked[[2]topology.Location{from, to}] = true
}

func (b *blockableTopo) Connected(from, to topology.Location) bool {
	if b.blocked[[2]topology.Location{from, to}] {
		return false
	}
	return b.inner.Connected(from, to)
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
	s := newBlockableTopo(topology.Grid{})
	d := deploymentWithTopo(t, s)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	dst := d.Node(topology.Loc(2, 1))

	// Let the transfer proceed normally until the last data message is on
	// the air, then sever the ack direction: the receiver completes but
	// the final ack never reaches the sender.
	migrateMsgs := 0
	d.Medium.Trace = func(f radio.Frame, to topology.Location, delivered bool) {
		if f.Kind == radio.KindMigrate && delivered {
			migrateMsgs++
			if migrateMsgs == 2 { // state + single code block
				s.Block(topology.Loc(2, 1), topology.Loc(1, 1))
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

// deploymentWithTopo builds a 2x1 zero-loss deployment over a custom
// topology.
func deploymentWithTopo(t *testing.T, topo topology.Topology) *Deployment {
	t.Helper()
	params := radio.ZeroLoss()
	d, err := NewDeployment(DeploymentSpec{
		Layout: topology.GridLayout(2, 1), Seed: 3, Radio: &params,
		Field: sensor.Constant(0), Topo: topo,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestReceiverStallAborts(t *testing.T) {
	s := newBlockableTopo(topology.Grid{})
	d := deploymentWithTopo(t, s)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	dst := d.Node(topology.Loc(2, 1))

	// A fat agent needs several messages; cut the forward link as soon as
	// the first message lands so the transfer stalls mid-flight.
	var cut bool
	d.Medium.Trace = func(f radio.Frame, to topology.Location, delivered bool) {
		if !cut && f.Kind == radio.KindMigrate && delivered {
			cut = true
			// Let this first message through, then sever.
			s.Block(topology.Loc(1, 1), topology.Loc(2, 1))
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

	if len(dst.in) != 0 {
		t.Error("stalled inbound transfer not aborted")
	}
	if dst.reserve != 0 {
		t.Errorf("reservation leaked: %d", dst.reserve)
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
