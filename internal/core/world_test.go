package core

import (
	"errors"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

func worldDeployment(t *testing.T, w, h int, opts ...func(*DeploymentSpec)) *Deployment {
	t.Helper()
	spec := DeploymentSpec{Layout: topology.GridLayout(w, h), Seed: 11, Radio: ptrRadio()}
	for _, opt := range opts {
		opt(&spec)
	}
	d, err := NewDeployment(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	return d
}

func ptrRadio() *radio.Params { p := radio.ZeroLoss(); return &p }

// TestKillTakesAgentsDown: a scripted kill fires at its exact virtual
// time; hosted agents die with the node carrying ErrNodeDown, and the
// neighbors expire the dead mote from their acquaintance lists.
func TestKillTakesAgentsDown(t *testing.T) {
	d := worldDeployment(t, 3, 1)
	victim := topology.Loc(2, 1)
	id, err := d.Node(victim).CreateAgent(asm.MustAssemble(agents.MonitorSrc(4)))
	if err != nil {
		t.Fatal(err)
	}

	var died []uint16
	d.Trace.AgentDied = func(node topology.Location, aid uint16, err error) {
		if !errors.Is(err, ErrNodeDown) {
			t.Errorf("agent %d died with %v, want ErrNodeDown", aid, err)
		}
		died = append(died, aid)
	}
	killAt := d.Sim.Now() + 3*time.Second
	d.KillAt(killAt, victim)
	if err := d.Sim.Run(d.Sim.Now() + 20*time.Second); err != nil {
		t.Fatal(err)
	}

	if got := d.Node(victim).Life(); got != NodeDown {
		t.Fatalf("victim life = %v, want down", got)
	}
	if len(died) != 1 || died[0] != id {
		t.Fatalf("died agents = %v, want [%d]", died, id)
	}
	info, ok := d.AgentRecord(id)
	if !ok || info.State != AgentDead || !errors.Is(info.Err, ErrNodeDown) {
		t.Fatalf("tracker record = %+v, want dead with ErrNodeDown", info)
	}
	if ws := d.WorldStats(); ws.Kills != 1 || ws.Rejected != 0 {
		t.Fatalf("world stats = %+v, want 1 kill", ws)
	}
	// Neighbors no longer list the dead mote after expiry.
	if d.Node(topology.Loc(1, 1)).Net().Acquaintances().Contains(victim) {
		t.Fatal("neighbors still list the dead mote after expiry")
	}
	// Creating an agent on a dead node is a typed error.
	if _, err := d.Node(victim).CreateAgent(agents.Monitor(2)); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("CreateAgent on dead node: %v, want ErrNodeDown", err)
	}
}

// TestReviveRebootsFresh: a revived mote boots with empty volatile state,
// re-seeds its context tuples, beacons again, and can host agents.
func TestReviveRebootsFresh(t *testing.T) {
	d := worldDeployment(t, 3, 1)
	victim := topology.Loc(2, 1)
	n := d.Node(victim)
	if err := n.Space().Out(tuplespace.T(tuplespace.Str("old"))); err != nil {
		t.Fatal(err)
	}

	var recovered []topology.Location
	d.Trace.NodeRecovered = func(loc topology.Location) { recovered = append(recovered, loc) }

	d.KillAt(d.Sim.Now()+time.Second, victim)
	d.ReviveAt(d.Sim.Now()+5*time.Second, victim)
	if err := d.Sim.Run(d.Sim.Now() + 15*time.Second); err != nil {
		t.Fatal(err)
	}

	if got := n.Life(); got != NodeUp {
		t.Fatalf("life = %v, want up", got)
	}
	if len(recovered) != 1 || recovered[0] != victim {
		t.Fatalf("recovered = %v", recovered)
	}
	if n.Space().Count(tuplespace.Tmpl(tuplespace.Str("old"))) != 0 {
		t.Fatal("pre-death tuple survived the reboot")
	}
	if n.Space().Count(tuplespace.Tmpl(tuplespace.Str("loc"), tuplespace.LocV(victim))) != 1 {
		t.Fatal("location context tuple not re-seeded")
	}
	// Neighbors re-learn it and migration through it works again.
	if !d.Node(topology.Loc(1, 1)).Net().Acquaintances().Contains(victim) {
		t.Fatal("revived mote not re-discovered")
	}
	if _, err := d.Base.InjectAgent(agents.SmoveRoundTrip(topology.Loc(3, 1), d.Base.Loc()), topology.Loc(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Sim.Run(d.Sim.Now() + 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if ws := d.WorldStats(); ws.Kills != 1 || ws.Revives != 1 {
		t.Fatalf("world stats = %+v", ws)
	}
}

// TestAgentSurvivesHostFailureMidMigration is the §3.2 fault-tolerance
// story against a real death: an agent strong-moves toward a mote that
// dies while the transfer is in flight; the sender detects the failure
// and resumes the agent locally — the agent outlives its destination.
func TestAgentSurvivesHostFailureMidMigration(t *testing.T) {
	d := worldDeployment(t, 3, 1)
	dest := topology.Loc(3, 1)
	src := topology.Loc(1, 1)
	id, err := d.Node(src).CreateAgent(asm.MustAssemble(agents.SmoveRoundTripSrc(dest, src)))
	if err != nil {
		t.Fatal(err)
	}
	// Kill the relay/destination the instant the hop is mid-air.
	d.KillAt(d.Sim.Now()+80*time.Millisecond, topology.Loc(2, 1))
	if err := d.Sim.Run(d.Sim.Now() + 30*time.Second); err != nil {
		t.Fatal(err)
	}
	info, ok := d.AgentRecord(id)
	if !ok {
		t.Fatal("agent untracked")
	}
	// The agent must not have died with the dead mote: either it is alive
	// on a surviving node or it completed its round trip and halted.
	if info.Err != nil {
		t.Fatalf("agent died: %v", info.Err)
	}
	if n := d.FindAgent(id); n == nil && !info.Halted {
		t.Fatalf("agent neither hosted nor halted: %+v", info)
	}
	if st := d.TotalStats(); st.MigrationsFail == 0 {
		t.Fatal("expected at least one failed handoff against the dead mote")
	}
}

// TestCrashDuringFinalizeReportsAgentDead: a mote that dies inside the
// MigRecvOverhead window — the inbound transfer fully acked, the agent
// existing only in the reassembly buffer — must report that agent dead
// with ErrNodeDown, or its handle would show AgentMigrating forever.
func TestCrashDuringFinalizeReportsAgentDead(t *testing.T) {
	d := worldDeployment(t, 2, 1)
	src, dst := topology.Loc(1, 1), topology.Loc(2, 1)
	id, err := d.Node(src).CreateAgent(asm.MustAssemble(agents.SmoveRoundTripSrc(dst, src)))
	if err != nil {
		t.Fatal(err)
	}
	// Run to the exact event that completes reception, then kill the
	// receiver before finalizeIn fires.
	hit, err := d.Sim.RunUntil(func() bool {
		for _, im := range d.Node(dst).in {
			if im.finalizing {
				return true
			}
		}
		return false
	}, 30*time.Second)
	if err != nil || !hit {
		t.Fatalf("transfer never reached the finalize window (hit=%v err=%v)", hit, err)
	}
	d.Node(dst).Crash(CauseKilled)
	if err := d.Sim.Run(d.Sim.Now() + 10*time.Second); err != nil {
		t.Fatal(err)
	}
	info, ok := d.AgentRecord(id)
	if !ok {
		t.Fatal("agent untracked")
	}
	if info.State != AgentDead || !errors.Is(info.Err, ErrNodeDown) {
		t.Fatalf("agent record = %+v, want dead with ErrNodeDown", info)
	}
}

// TestMoveRelocatesNode: a cross-deployment move changes the mote's
// address, context tuple, sensing position, and connectivity; the old
// location stops answering.
func TestMoveRelocatesNode(t *testing.T) {
	d := worldDeployment(t, 4, 1)
	from, to := topology.Loc(4, 1), topology.Loc(1, 2)
	rider, err := d.Node(from).CreateAgent(agents.Monitor(4))
	if err != nil {
		t.Fatal(err)
	}

	var moves [][2]topology.Location
	d.Trace.NodeMoved = func(a, b topology.Location) { moves = append(moves, [2]topology.Location{a, b}) }

	d.MoveAt(d.Sim.Now()+time.Second, from, to)
	if err := d.Sim.Run(d.Sim.Now() + 15*time.Second); err != nil {
		t.Fatal(err)
	}

	if len(moves) != 1 || moves[0] != [2]topology.Location{from, to} {
		t.Fatalf("moves = %v", moves)
	}
	if d.Node(from) != nil {
		t.Fatal("old location still resolves to a node")
	}
	n := d.Node(to)
	if n == nil || n.Loc() != to {
		t.Fatalf("node did not rekey to %v", to)
	}
	if n.Space().Count(tuplespace.Tmpl(tuplespace.Str("loc"), tuplespace.LocV(to))) != 1 {
		t.Fatal("loc context tuple not updated")
	}
	if n.Space().Count(tuplespace.Tmpl(tuplespace.Str("loc"), tuplespace.LocV(from))) != 0 {
		t.Fatal("stale loc context tuple survived the move")
	}
	// The hosted agent rode along: its tracked record resolves to the
	// new address, so Host/Kill-style lookups keep working.
	if info, ok := d.AgentRecord(rider); !ok || info.Loc != to {
		t.Fatalf("rider record = %+v ok=%v, want Loc=%v", info, ok, to)
	}
	if host := d.FindAgent(rider); host != n {
		t.Fatalf("FindAgent after move = %v, want the moved node", host)
	}
	// The mote now beacons from its new position: (1,1) hears it as a
	// neighbor at (1,2) after a beacon period.
	if !d.Node(topology.Loc(1, 1)).Net().Acquaintances().Contains(to) {
		t.Fatal("moved mote not discovered at its new position")
	}
	found := false
	for _, l := range d.Layout().Nodes {
		if l == to {
			found = true
		}
		if l == from {
			t.Fatal("layout still lists the vacated location")
		}
	}
	if !found {
		t.Fatalf("layout not updated: %+v", d.Layout())
	}
	// An agent can migrate to the new address.
	if _, err := d.Base.InjectAgent(agents.SmoveRoundTrip(to, d.Base.Loc()), topology.Loc(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Sim.Run(d.Sim.Now() + 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if st := d.TotalStats(); st.MigrationsOK == 0 {
		t.Fatal("no successful migration to the moved mote")
	}
}

// TestMoveRejectsIllegalTargets: occupied targets, missing sources, and
// the base station are all refused and counted.
func TestMoveRejectsIllegalTargets(t *testing.T) {
	d := worldDeployment(t, 2, 1)
	now := d.Sim.Now()
	d.MoveAt(now+time.Millisecond, topology.Loc(1, 1), topology.Loc(2, 1)) // occupied
	d.MoveAt(now+time.Millisecond, topology.Loc(9, 9), topology.Loc(3, 3)) // no node
	d.MoveAt(now+time.Millisecond, d.Base.Loc(), topology.Loc(3, 3))       // base
	d.KillAt(now+time.Millisecond, d.Base.Loc())                           // base
	if err := d.Sim.Run(now + time.Second); err != nil {
		t.Fatal(err)
	}
	if ws := d.WorldStats(); ws.Rejected != 4 || ws.Moves != 0 || ws.Kills != 0 {
		t.Fatalf("world stats = %+v, want 4 rejected", ws)
	}
}

// TestGatewayMoveCarriesBaseBridge: the base station's bridge follows a
// moving gateway, so base traffic keeps flowing.
func TestGatewayMoveCarriesBaseBridge(t *testing.T) {
	d := worldDeployment(t, 3, 1)
	gw := d.Layout().Gateway // (1,1)
	to := topology.Loc(1, 2)
	d.MoveAt(d.Sim.Now()+time.Second, gw, to)
	if err := d.Sim.Run(d.Sim.Now() + 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := d.Layout().Gateway; got != to {
		t.Fatalf("layout gateway = %v, want %v", got, to)
	}
	// The base can still inject through the (moved) gateway.
	if _, err := d.Base.InjectAgent(agents.Monitor(2), to); err != nil {
		t.Fatal(err)
	}
	if err := d.Sim.Run(d.Sim.Now() + 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Node(to).NumAgents() == 0 {
		t.Fatal("injection through the moved gateway never arrived")
	}
}

// TestEnergyExhaustionKillsNode: a tiny battery under a busy agent dies
// at a precise instant with the full event sequence; an unconstrained
// node keeps running.
func TestEnergyExhaustionKillsNode(t *testing.T) {
	small := DefaultEnergyModel()
	small.CapacityJ = 0.01 // survives warm-up, dies within the minute under load
	d := worldDeployment(t, 2, 1, func(s *DeploymentSpec) { s.Energy = &small })

	var exhausted []topology.Location
	var died []topology.Location
	d.Trace.EnergyExhausted = func(loc topology.Location, usedJ float64) {
		if usedJ < small.CapacityJ {
			t.Errorf("exhausted at %g J, below capacity %g", usedJ, small.CapacityJ)
		}
		exhausted = append(exhausted, loc)
	}
	d.Trace.NodeDied = func(loc topology.Location, cause DownCause) {
		if cause != CauseEnergy {
			t.Errorf("node died of %v, want energy", cause)
		}
		died = append(died, loc)
	}

	busy := topology.Loc(1, 1)
	if _, err := d.Node(busy).CreateAgent(agents.Monitor(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Sim.Run(d.Sim.Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}

	if d.Node(busy).Life() != NodeDown {
		t.Fatal("busy mote should have exhausted its battery")
	}
	contains := func(locs []topology.Location, want topology.Location) bool {
		for _, l := range locs {
			if l == want {
				return true
			}
		}
		return false
	}
	if !contains(exhausted, busy) {
		t.Fatalf("exhausted = %v, want %v included", exhausted, busy)
	}
	if !contains(died, busy) {
		t.Fatalf("died = %v, want %v included", died, busy)
	}
	if st := d.TotalStats(); st.EnergyDeaths == 0 {
		t.Fatal("EnergyDeaths counter not incremented")
	}
	used, capJ, ok := d.Node(busy).Battery()
	if !ok || used < capJ {
		t.Fatalf("battery = %g/%g ok=%v", used, capJ, ok)
	}
}

// TestBatteryFreezesAtDeath: a powered-off mote drains nothing — its
// energy figure is frozen at the moment of death, and host-side reads
// are pure (they never commit pending idle drain, so probing cannot
// perturb the schedule).
func TestBatteryFreezesAtDeath(t *testing.T) {
	m := DefaultEnergyModel()
	d := worldDeployment(t, 2, 1, func(s *DeploymentSpec) { s.Energy = &m })
	victim := topology.Loc(2, 1)
	d.KillAt(d.Sim.Now()+time.Second, victim)
	if err := d.Sim.Run(d.Sim.Now() + 2*time.Second); err != nil {
		t.Fatal(err)
	}
	atDeath, _, _ := d.Node(victim).Battery()
	if atDeath <= 0 {
		t.Fatal("no drain recorded before death")
	}
	if err := d.Sim.Run(d.Sim.Now() + 100*time.Second); err != nil {
		t.Fatal(err)
	}
	later, capJ, _ := d.Node(victim).Battery()
	if later != atDeath {
		t.Fatalf("dead mote accrued phantom drain: %g J at death, %g J later", atDeath, later)
	}
	if later >= capJ {
		t.Fatalf("killed mote reports exhaustion it never had: %g/%g", later, capJ)
	}
	// Live-mote reads are pure: back-to-back probes at one instant agree,
	// and EnergyUsedJ matches the per-node sum.
	a1, _, _ := d.Node(topology.Loc(1, 1)).Battery()
	a2, _, _ := d.Node(topology.Loc(1, 1)).Battery()
	if a1 != a2 {
		t.Fatalf("reading the battery changed it: %g then %g", a1, a2)
	}
	if total := d.EnergyUsedJ(); total < a1+atDeath {
		t.Fatalf("EnergyUsedJ %g below component sum %g", total, a1+atDeath)
	}
}

// TestEnergyLifetimeAcrossRevival: a revival installs fresh cells but
// must not erase the old battery's drain from the deployment-wide total
// — EnergyUsedJ is monotonic under churn.
func TestEnergyLifetimeAcrossRevival(t *testing.T) {
	m := DefaultEnergyModel()
	d := worldDeployment(t, 2, 1, func(s *DeploymentSpec) { s.Energy = &m })
	victim := topology.Loc(2, 1)
	d.KillAt(d.Sim.Now()+2*time.Second, victim)
	if err := d.Sim.Run(d.Sim.Now() + 3*time.Second); err != nil {
		t.Fatal(err)
	}
	firstLife, _, _ := d.Node(victim).Battery()
	beforeRevive := d.EnergyUsedJ()
	d.ReviveAt(d.Sim.Now()+time.Second, victim)
	// Probe just after the boot completes: the fresh cells must read far
	// below the first life's figure.
	if err := d.Sim.Run(d.Sim.Now() + 2*time.Second); err != nil {
		t.Fatal(err)
	}
	fresh, _, _ := d.Node(victim).Battery()
	if fresh >= firstLife/2 {
		t.Fatalf("revived battery not fresh: %g J just after reboot, %g J at death", fresh, firstLife)
	}
	if err := d.Sim.Run(d.Sim.Now() + 10*time.Second); err != nil {
		t.Fatal(err)
	}
	secondLife, _, _ := d.Node(victim).Battery()
	if after := d.EnergyUsedJ(); after < beforeRevive {
		t.Fatalf("EnergyUsedJ went backwards across revival: %g -> %g", beforeRevive, after)
	} else if after < firstLife+secondLife {
		t.Fatalf("EnergyUsedJ %g dropped the first life's %g J", after, firstLife)
	}
}

// TestIdleDrainKillsSilentMote: with beacons as the only activity and a
// battery sized below the idle budget, the periodic check still catches
// exhaustion.
func TestIdleDrainKillsSilentMote(t *testing.T) {
	m := EnergyModel{
		CapacityJ:  0.001,
		IdleW:      0.0001, // 10 s of idle
		CheckEvery: 500 * time.Millisecond,
	}
	d := worldDeployment(t, 2, 1, func(s *DeploymentSpec) { s.Energy = &m })
	if err := d.Sim.Run(d.Sim.Now() + 30*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, n := range d.Motes() {
		if n.Life() != NodeDown {
			t.Fatalf("mote %v still %v after its idle budget", n.Loc(), n.Life())
		}
	}
	if d.EnergyUsedJ() <= 0 {
		t.Fatal("no energy accounted")
	}
}
