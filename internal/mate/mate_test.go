package mate

import (
	"slices"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sensor"
	"github.com/agilla-go/agilla/internal/topology"
)

func testNetwork(t *testing.T, w, h int) *Network {
	t.Helper()
	nw, err := NewGridNetwork(5, w, h, radio.ZeroLoss(), sensor.Constant(25), Config{})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	return nw
}

func TestInstallVersioning(t *testing.T) {
	nw := testNetwork(t, 1, 1)
	n := nw.Node(topology.Loc(1, 1))

	if err := n.Install(Capsule{Type: CapsuleClock, Version: 2, Code: []byte{0}}); err != nil {
		t.Fatal(err)
	}
	// Stale version ignored.
	if err := n.Install(Capsule{Type: CapsuleClock, Version: 1, Code: []byte{0, 0}}); err != nil {
		t.Fatal(err)
	}
	if n.Version(CapsuleClock) != 2 {
		t.Errorf("version = %d, want 2", n.Version(CapsuleClock))
	}
	// Newer replaces.
	if err := n.Install(Capsule{Type: CapsuleClock, Version: 3, Code: []byte{0}}); err != nil {
		t.Fatal(err)
	}
	if n.Version(CapsuleClock) != 3 {
		t.Errorf("version = %d, want 3", n.Version(CapsuleClock))
	}
}

func TestInstallRejectsOversized(t *testing.T) {
	nw := testNetwork(t, 1, 1)
	n := nw.Node(topology.Loc(1, 1))
	if err := n.Install(Capsule{Type: CapsuleClock, Version: 1, Code: make([]byte, MaxCapsuleCode+1)}); err == nil {
		t.Error("oversized capsule must be rejected")
	}
	if err := n.Install(Capsule{Type: 9, Version: 1, Code: []byte{0}}); err == nil {
		t.Error("bad capsule type must be rejected")
	}
}

func TestCapsuleFloodsNetwork(t *testing.T) {
	nw := testNetwork(t, 5, 5)
	nw.Start()

	c := Capsule{Type: CapsuleClock, Version: 1, Code: asm.MustAssemble("pushc 1\nputled\nhalt")}
	if err := nw.Inject(topology.Loc(1, 1), c); err != nil {
		t.Fatal(err)
	}
	converged, err := nw.Sim.RunUntil(func() bool {
		return nw.Converged(CapsuleClock, 1)
	}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Fatal("capsule did not flood the 5x5 network within 60s")
	}
	// Every node installed it exactly once.
	for _, n := range nw.Nodes() {
		if n.Installs != 1 {
			t.Errorf("node %v installed %d times", n.Loc(), n.Installs)
		}
	}
}

func TestFloodCannotBeTargeted(t *testing.T) {
	// The paper's §5 criticism: "Maté does not allow a user to control
	// where an application is installed." Injecting at a corner reaches
	// everything; there is no way to confine it.
	nw := testNetwork(t, 3, 3)
	nw.Start()
	c := Capsule{Type: CapsuleClock, Version: 1, Code: asm.MustAssemble("halt")}
	if err := nw.Inject(topology.Loc(1, 1), c); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Sim.RunUntil(func() bool { return nw.Converged(CapsuleClock, 1) }, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	far := nw.Node(topology.Loc(3, 3))
	if far.Version(CapsuleClock) != 1 {
		t.Error("flooding should have reached the far corner")
	}
}

func TestClockCapsuleRuns(t *testing.T) {
	nw := testNetwork(t, 1, 1)
	n := nw.Node(topology.Loc(1, 1))
	if err := n.Install(Capsule{Type: CapsuleClock, Version: 1,
		Code: asm.MustAssemble("pushc 7\nputled\nhalt")}); err != nil {
		t.Fatal(err)
	}
	nw.Start()
	if err := nw.Sim.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n.Runs < 2 {
		t.Errorf("clock capsule ran %d times, want ≥2", n.Runs)
	}
	if n.LED() != 7 {
		t.Errorf("LED = %d, want 7", n.LED())
	}
}

func TestCapsuleSendsReadings(t *testing.T) {
	nw := testNetwork(t, 1, 1)
	n := nw.Node(topology.Loc(1, 1))
	// A Maté-style sense-and-send program: out degrades to send-to-base.
	code := asm.MustAssemble(`
		pushc TEMPERATURE
		sense
		pushc 1
		out
		halt
	`)
	if err := n.Install(Capsule{Type: CapsuleClock, Version: 1, Code: code}); err != nil {
		t.Fatal(err)
	}
	nw.Start()
	if err := nw.Sim.Run(25 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(n.SentTuples) == 0 {
		t.Fatal("capsule sent no readings")
	}
	if n.SentTuples[0].Fields[0].B != 25 {
		t.Errorf("reading = %v", n.SentTuples[0])
	}
}

func TestNewVersionReflashesWholeNetwork(t *testing.T) {
	// Retasking Maté = flooding again: every node reinstalls.
	nw := testNetwork(t, 3, 3)
	nw.Start()
	v1 := Capsule{Type: CapsuleClock, Version: 1, Code: asm.MustAssemble("halt")}
	if err := nw.Inject(topology.Loc(1, 1), v1); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Sim.RunUntil(func() bool { return nw.Converged(CapsuleClock, 1) }, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	msgsAfterV1 := nw.Medium.Stats().Sent

	v2 := Capsule{Type: CapsuleClock, Version: 2, Code: asm.MustAssemble("pushc 2\nputled\nhalt")}
	if err := nw.Inject(topology.Loc(1, 1), v2); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Sim.RunUntil(func() bool { return nw.Converged(CapsuleClock, 2) }, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, n := range nw.Nodes() {
		if n.Installs != 2 {
			t.Errorf("node %v installs = %d, want 2", n.Loc(), n.Installs)
		}
	}
	if nw.Medium.Stats().Sent <= msgsAfterV1 {
		t.Error("reflashing cost no messages?")
	}
}

func TestDeadNodeMissesCapsule(t *testing.T) {
	nw := testNetwork(t, 2, 1)
	nw.Start()
	nw.Node(topology.Loc(2, 1)).Stop()
	if err := nw.Inject(topology.Loc(1, 1), Capsule{Type: CapsuleClock, Version: 1, Code: asm.MustAssemble("halt")}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Sim.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if nw.Converged(CapsuleClock, 1) {
		t.Error("dead node cannot have converged")
	}
}

// TestMateStartOrderIrrelevant: every mote schedules and draws on its own
// context, so starting the same network in a different order runs the
// same flood.
func TestMateStartOrderIrrelevant(t *testing.T) {
	flood := func(reverse bool) (time.Duration, radio.Stats) {
		nw, err := NewGridNetwork(5, 4, 4, radio.Lossy(), sensor.Constant(25), Config{})
		if err != nil {
			t.Fatal(err)
		}
		nodes := nw.Nodes()
		if reverse {
			slices.Reverse(nodes)
		}
		for _, n := range nodes {
			n.Start()
		}
		c := Capsule{Type: CapsuleClock, Version: 1, Code: asm.MustAssemble("pushc 1\nputled\nhalt")}
		if err := nw.Inject(topology.Loc(1, 1), c); err != nil {
			t.Fatal(err)
		}
		ok, err := nw.Sim.RunUntil(func() bool { return nw.Converged(CapsuleClock, 1) }, 120*time.Second)
		if err != nil || !ok {
			t.Fatalf("reverse=%v: converged=%v err=%v", reverse, ok, err)
		}
		return nw.Sim.Now(), nw.Medium.Stats()
	}
	at, stats := flood(false)
	revAt, revStats := flood(true)
	if revAt != at || revStats != stats {
		t.Fatalf("location order converged at %v with %+v; reverse order at %v with %+v", at, stats, revAt, revStats)
	}
}
