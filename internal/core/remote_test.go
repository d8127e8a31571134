package core

import (
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
	"github.com/agilla-go/agilla/internal/wire"
)

func TestRoutInsertsRemotely(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	dst := d.Node(topology.Loc(2, 1))

	// Figure 8's rout agent: place <1> on the remote node.
	code := asm.MustAssemble(`
		pushc 1
		pushc 1
		pushloc 2 1
		rout
		halt
	`)
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 2*time.Second)

	if !hasMarker(dst, 1) {
		t.Error("rout did not insert the tuple remotely")
	}
	if src.Stats().RemoteOK != 1 {
		t.Errorf("RemoteOK = %d", src.Stats().RemoteOK)
	}
}

func TestRinpRemovesAndReturns(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	dst := d.Node(topology.Loc(2, 1))

	// Pre-place <33> at the destination.
	if err := dst.Space().Out(tuplespace.T(tuplespace.Int(33))); err != nil {
		t.Fatal(err)
	}

	// rinp it and re-out the received value locally, incremented.
	code := asm.MustAssemble(`
		pusht VALUE
		pushc 1
		pushloc 2 1
		rinp
		pop      // field count from the returned tuple
		inc
		pushc 1
		out      // <34> locally
		halt
	`)
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 2*time.Second)

	if !hasMarker(src, 34) {
		t.Error("rinp result not delivered to the agent")
	}
	if hasMarker(dst, 33) {
		t.Error("rinp did not remove the tuple remotely")
	}
}

func TestRrdpCopiesWithoutRemoving(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	dst := d.Node(topology.Loc(2, 1))

	if err := dst.Space().Out(tuplespace.T(tuplespace.Int(44))); err != nil {
		t.Fatal(err)
	}
	code := asm.MustAssemble(`
		pusht VALUE
		pushc 1
		pushloc 2 1
		rrdp
		pop
		inc
		pushc 1
		out      // <45> locally
		halt
	`)
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 2*time.Second)

	if !hasMarker(src, 45) {
		t.Error("rrdp result not delivered")
	}
	if !hasMarker(dst, 44) {
		t.Error("rrdp must not remove the remote tuple")
	}
}

func TestRemoteOpNoMatchClearsCondition(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))

	// rinp for a tuple that does not exist: condition 0, nothing pushed.
	code := asm.MustAssemble(`
		     pushcl 999
		     pushc 1
		     pushloc 2 1
		     rinp
		     rjumpc BAD
		     pushcl 123
		     pushc 1
		     out      // "no match" marker
		     halt
		BAD  halt
	`)
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 2*time.Second)
	if !hasMarker(src, 123) {
		t.Error("failed rinp must clear the condition and push nothing")
	}
}

func TestRemoteTimeoutAfterRetries(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	// Dead destination: requests vanish.
	d.Node(topology.Loc(2, 1)).Stop()

	var outcome []bool
	var elapsed time.Duration
	d.Trace.RemoteDone = func(_ topology.Location, _ uint16, _ vm.RemoteKind, _ topology.Location, ok bool, dt time.Duration) {
		outcome = append(outcome, ok)
		elapsed = dt
	}
	code := asm.MustAssemble(`
		     pushc 1
		     pushc 1
		     pushloc 2 1
		     rout
		     rjumpc BAD
		     pushcl 321
		     pushc 1
		     out
		     halt
		BAD  halt
	`)
	start := d.Sim.Now()
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	// 3 attempts × 2 s timeouts.
	runFor(t, d, 8*time.Second)

	if !hasMarker(src, 321) {
		t.Error("agent not resumed with condition 0 after remote timeout")
	}
	if len(outcome) != 1 || outcome[0] {
		t.Errorf("RemoteDone trace = %v", outcome)
	}
	// Three 2-second attempts: resolution near start+6s.
	if elapsed < 5*time.Second || d.Sim.Now() < start+6*time.Second {
		t.Errorf("timed out too early: elapsed=%v", elapsed)
	}
}

func TestRemoteOpMultiHop(t *testing.T) {
	d := quietDeployment(t, 5, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	dst := d.Node(topology.Loc(5, 1))

	code := asm.MustAssemble(`
		pushcl 55
		pushc 1
		pushloc 5 1
		rout
		halt
	`)
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 2*time.Second)
	if !hasMarker(dst, 55) {
		t.Error("rout did not cross 4 hops")
	}
}

func TestRemoteOpToSelf(t *testing.T) {
	d := quietDeployment(t, 1, 1)
	n := d.Node(topology.Loc(1, 1))

	// A remote op addressed to the local node must work without radio.
	code := asm.MustAssemble(`
		pushcl 66
		pushc 1
		pushloc 1 1
		rout
		halt
	`)
	if _, err := n.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, time.Second)
	if !hasMarker(n, 66) {
		t.Error("self-addressed rout failed")
	}
	if got := d.Medium.Stats().Sent; got != 0 {
		t.Errorf("self rout touched the radio: %d frames", got)
	}
}

func TestRoutTriggersRemoteReaction(t *testing.T) {
	// The FIREDETECTOR → FIRETRACKER notification path: a reaction on the
	// destination node fires when a remote rout inserts the tuple.
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	dst := d.Node(topology.Loc(2, 1))

	tracker := asm.MustAssemble(`
		     pushn fir
		     pusht LOCATION
		     pushc 2
		     pushcl FIRE
		     regrxn
		     wait
		FIRE pop
		     pop
		     pop
		     pushcl 911
		     pushc 1
		     out
		     halt
	`)
	if _, err := dst.CreateAgent(tracker); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, time.Second)

	detector := asm.MustAssemble(`
		pushn fir
		loc
		pushc 2
		pushloc 2 1
		rout
		halt
	`)
	if _, err := src.CreateAgent(detector); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 2*time.Second)

	if !hasMarker(dst, 911) {
		t.Error("remote rout did not trigger the destination reaction")
	}
}

func TestBaseStationRemoteOpAPI(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	dst := d.Node(topology.Loc(2, 1))
	if err := dst.Space().Out(tuplespace.T(tuplespace.Str("abc"))); err != nil {
		t.Fatal(err)
	}

	var got *wire.RemoteReply
	d.Base.RemoteOp(wire.OpRrdp, topology.Loc(2, 1), tuplespace.Tuple{},
		tuplespace.Tmpl(tuplespace.TypeV(tuplespace.TypeString)),
		func(r wire.RemoteReply, _ error) { got = &r })
	runFor(t, d, 2*time.Second)

	if got == nil || !got.OK {
		t.Fatalf("tool rrdp failed: %+v", got)
	}
	if len(got.Tuple.Fields) != 1 || got.Tuple.Fields[0].Name() != "abc" {
		t.Errorf("tool rrdp tuple = %v", got.Tuple)
	}
}

// dropFirstReply arms the medium to eat the first remote-TS reply frame,
// forcing the initiator to retransmit the request. It returns a pointer
// to the drop count.
func dropFirstReply(d *Deployment) *int {
	dropped := 0
	d.Medium.Drop = func(f radio.Frame, _ topology.Location) bool {
		if f.Kind == radio.KindRemoteTSR && dropped == 0 {
			dropped++
			return true
		}
		return false
	}
	return &dropped
}

// TestRinpRetransmitNotReExecuted is the responder-side at-most-once
// contract: when only the reply is lost, the retransmitted rinp must be
// answered from the reply cache instead of destroying a second tuple.
func TestRinpRetransmitNotReExecuted(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	dst := d.Node(topology.Loc(2, 1))

	// Two identical tuples: re-executing the rinp would destroy both.
	for i := 0; i < 2; i++ {
		if err := dst.Space().Out(tuplespace.T(tuplespace.Int(33))); err != nil {
			t.Fatal(err)
		}
	}
	dropped := dropFirstReply(d)

	code := asm.MustAssemble(`
		pusht VALUE
		pushc 1
		pushloc 2 1
		rinp
		pop      // field count from the returned tuple
		inc
		pushc 1
		out      // <34> locally: the reply eventually got through
		halt
	`)
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	// First attempt + 2 s initiator timeout + retransmission round trip.
	runFor(t, d, 5*time.Second)

	if *dropped != 1 {
		t.Fatalf("dropped %d replies, want 1", *dropped)
	}
	if !hasMarker(src, 34) {
		t.Error("retransmitted rinp never resolved on the initiator")
	}
	if got := dst.Space().Count(tuplespace.Tmpl(tuplespace.Int(33))); got != 1 {
		t.Errorf("destination holds %d copies after reply loss, want exactly 1", got)
	}
}

// TestRoutRetransmitNotReExecuted covers the insertion side: a
// retransmitted rout must not insert the tuple twice.
func TestRoutRetransmitNotReExecuted(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	src := d.Node(topology.Loc(1, 1))
	dst := d.Node(topology.Loc(2, 1))
	dropped := dropFirstReply(d)

	code := asm.MustAssemble(`
		pushcl 77
		pushc 1
		pushloc 2 1
		rout
		halt
	`)
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 5*time.Second)

	if *dropped != 1 {
		t.Fatalf("dropped %d replies, want 1", *dropped)
	}
	if got := dst.Space().Count(tuplespace.Tmpl(tuplespace.Int(77))); got != 1 {
		t.Errorf("destination holds %d copies after reply loss, want exactly 1", got)
	}
	if src.Stats().RemoteOK != 1 {
		t.Errorf("RemoteOK = %d, want 1", src.Stats().RemoteOK)
	}
}

// TestServedCacheEvicted checks the reply cache does not grow without
// bound: entries older than the retransmission window are collected.
func TestServedCacheEvicted(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	dst := d.Node(topology.Loc(2, 1))
	for i := 0; i < 5; i++ {
		var got *wire.RemoteReply
		d.Base.RemoteOp(wire.OpRrdp, topology.Loc(2, 1), tuplespace.Tuple{},
			tuplespace.Tmpl(tuplespace.Int(1)),
			func(r wire.RemoteReply, _ error) { got = &r })
		runFor(t, d, 35*time.Second) // well past the responder's grace
		if got == nil {
			t.Fatalf("op %d never resolved", i)
		}
	}
	if n := len(dst.served); n > 1 {
		t.Errorf("served cache holds %d entries after eviction window, want <= 1", n)
	}
}

func TestMemoryBudgetMatchesPaper(t *testing.T) {
	if got := MemoryTotal(Config{}); got != PaperDataBytes {
		t.Errorf("modelled SRAM budget = %d bytes, want %d (3.59KB)", got, PaperDataBytes)
	}
	// Budgets scale with configuration.
	big := MemoryTotal(Config{MaxAgents: 8})
	if big <= PaperDataBytes {
		t.Error("doubling agents must grow the budget")
	}
}

func TestDeploymentAssembly(t *testing.T) {
	d := quietDeployment(t, 5, 5)
	if len(d.Nodes()) != 26 { // 25 motes + base
		t.Errorf("nodes = %d, want 26", len(d.Nodes()))
	}
	if len(d.Motes()) != 25 {
		t.Errorf("motes = %d, want 25", len(d.Motes()))
	}
	if d.Node(topology.Loc(0, 0)) != d.Base {
		t.Error("base not at (0,0)")
	}
	if d.TotalAgents() != 0 {
		t.Error("fresh deployment has agents")
	}
	// Nodes are sorted by (Y,X).
	ns := d.Nodes()
	if ns[0].Loc() != topology.Loc(0, 0) || ns[1].Loc() != topology.Loc(1, 1) {
		t.Errorf("sort order wrong: %v, %v", ns[0].Loc(), ns[1].Loc())
	}
}

func TestDeploymentRejectsBadConfig(t *testing.T) {
	if _, err := NewDeployment(DeploymentSpec{Layout: topology.GridLayout(0, 5)}); err == nil {
		t.Error("zero width must be rejected")
	}
}
