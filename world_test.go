package agilla_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/program"
)

// TestScenarioFaultScript: a declarative kill+revive+move script runs
// inside a scenario and is visible in the metrics and the world counters.
func TestScenarioFaultScript(t *testing.T) {
	s := &agilla.Scenario{
		Name:     "faults",
		Topology: agilla.Grid(3, 3),
		Radio:    ptr(agilla.ReliableRadio()),
		Duration: 30 * time.Second,
		Faults: []agilla.WorldEvent{
			agilla.KillAt(8*time.Second, agilla.Loc(2, 2)),
			agilla.ReviveAt(15*time.Second, agilla.Loc(2, 2)),
			agilla.MoveAt(12*time.Second, agilla.Loc(3, 3), agilla.Loc(4, 3)),
			agilla.KillAt(9*time.Second, agilla.Loc(9, 9)), // nobody there: rejected
		},
	}
	m, err := s.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if m.NodesDied != 1 || m.NodesRecovered != 1 || m.NodesMoved != 1 {
		t.Fatalf("world census = died %d recovered %d moved %d, want 1/1/1 (metrics %v)",
			m.NodesDied, m.NodesRecovered, m.NodesMoved, m)
	}
}

// TestScenarioFaultDeterminism: the same fault script plus churn produces
// byte-identical metrics across runs and across kernel worker counts.
func TestScenarioFaultDeterminism(t *testing.T) {
	build := func(workers int) *agilla.Scenario {
		return &agilla.Scenario{
			Name:     "churny",
			Topology: agilla.Grid(4, 4),
			Duration: 25 * time.Second,
			Workers:  workers,
			Churn: &agilla.ChurnProcess{
				MeanUp:   12 * time.Second,
				MeanDown: 4 * time.Second,
				Start:    6 * time.Second,
			},
			Faults: []agilla.WorldEvent{
				agilla.MoveAt(10*time.Second, agilla.Loc(4, 4), agilla.Loc(5, 4)),
			},
			Agents: []agilla.AgentSpec{{
				Name:    "wanderer",
				Program: program.MustParse(roundTripSrc(agilla.Loc(4, 1))),
				At:      agilla.Loc(1, 1),
			}},
		}
	}
	want, err := build(1).Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if want.NodesDied == 0 {
		t.Fatalf("churn never killed anything: %v", want)
	}
	snap := func(m *agilla.Metrics) string { return fmt.Sprintf("%+v", *m) }
	again, err := build(1).Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if snap(again) != snap(want) {
		t.Fatalf("same seed diverged:\n  %v\n  %v", again, want)
	}
	par, err := build(4).Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if snap(par) != snap(want) {
		t.Fatalf("4-worker run diverged from sequential:\n  %v\n  %v", par, want)
	}
	other, err := build(1).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if snap(other) == snap(want) {
		t.Fatal("different seeds produced identical churn metrics; the process is not seeded")
	}
}

// TestAgentWaitErrNodeDown: an agent waiting for a condition dies with
// its host; Wait surfaces the typed error instead of idling out.
func TestAgentWaitErrNodeDown(t *testing.T) {
	nw, err := agilla.New(
		agilla.WithTopology(agilla.Grid(2, 1)),
		agilla.WithReliableRadio(),
		agilla.WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	// A sleepy agent parks on (2,1) forever.
	p := program.New("sleeper").Label("L").PushC(8).Sleep().Jump("L").MustBuild()
	ag, err := nw.Launch(p, agilla.Loc(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := nw.RunUntil(func() bool { return ag.Host() != nil }, 30*time.Second); err != nil || !ok {
		t.Fatalf("agent never arrived (ok=%v err=%v)", ok, err)
	}
	nw.Script(agilla.KillAt(nw.Now()+2*time.Second, agilla.Loc(2, 1)))
	ok, err := ag.Wait(func(a *agilla.Agent) bool { return a.Hops() > 10 }, 5*time.Minute)
	if ok || !errors.Is(err, agilla.ErrNodeDown) {
		t.Fatalf("Wait = %v, %v; want false, ErrNodeDown", ok, err)
	}
	if nw.Now() > 4*time.Minute {
		t.Fatalf("Wait idled to %v instead of stopping at the death", nw.Now())
	}
	// WaitDone is satisfied by the death itself and must not error.
	if ok, err := ag.WaitDone(time.Second); !ok || err != nil {
		t.Fatalf("WaitDone = %v, %v; want true, nil", ok, err)
	}
	if !errors.Is(ag.Err(), agilla.ErrNodeDown) {
		t.Fatalf("agent err = %v, want ErrNodeDown", ag.Err())
	}
}

// TestWorldEventsOnStream: node lifecycle events arrive as typed events
// with the right kinds and payloads.
func TestWorldEventsOnStream(t *testing.T) {
	nw, err := agilla.New(
		agilla.WithTopology(agilla.Grid(3, 1)),
		agilla.WithReliableRadio(),
		agilla.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	events := nw.Events(agilla.OfKind(agilla.EventNodeDied, agilla.EventNodeRecovered, agilla.EventNodeMoved))
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	nw.Script(
		agilla.KillAt(nw.Now()+time.Second, agilla.Loc(3, 1)),
		agilla.ReviveAt(nw.Now()+3*time.Second, agilla.Loc(3, 1)),
		agilla.MoveAt(nw.Now()+5*time.Second, agilla.Loc(2, 1), agilla.Loc(2, 2)),
	)
	if err := nw.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if life, ok := nw.Life(agilla.Loc(3, 1)); !ok || life != agilla.NodeUp {
		t.Fatalf("revived node life = %v ok=%v", life, ok)
	}
	if life, ok := nw.Life(agilla.Loc(2, 2)); !ok || life != agilla.NodeUp {
		t.Fatalf("moved node life = %v ok=%v", life, ok)
	}
	if _, ok := nw.Life(agilla.Loc(2, 1)); ok {
		t.Fatal("vacated location still reports a node")
	}
	// A hand-built event with a zero Kind is counted, not silently lost.
	nw.Script(agilla.WorldEvent{At: nw.Now(), Loc: agilla.Loc(1, 1)})
	if ws := nw.WorldStats(); ws.Rejected != 1 {
		t.Fatalf("zero-kind event not counted: %+v", ws)
	}
	nw.Close()
	var got []agilla.Event
	for e := range events {
		got = append(got, e)
	}
	if len(got) != 3 {
		t.Fatalf("got %d lifecycle events, want 3: %v", len(got), got)
	}
	if d := got[0]; d.Kind != agilla.EventNodeDied || d.Node != agilla.Loc(3, 1) || d.Cause != agilla.CauseKilled {
		t.Fatalf("event 0 = %v", got[0])
	}
	if r := got[1]; r.Kind != agilla.EventNodeRecovered || r.Node != agilla.Loc(3, 1) {
		t.Fatalf("event 1 = %v", got[1])
	}
	if mv := got[2]; mv.Kind != agilla.EventNodeMoved || mv.Peer != agilla.Loc(2, 1) || mv.Node != agilla.Loc(2, 2) {
		t.Fatalf("event 2 = %v", got[2])
	}
}

// TestEnergyModelPublic: WithEnergy drains batteries, kills exhausted
// motes with typed events, and reports through Battery.
func TestEnergyModelPublic(t *testing.T) {
	m := agilla.DefaultEnergyModel()
	m.CapacityJ = 0.02
	nw, err := agilla.New(
		agilla.WithTopology(agilla.Grid(2, 1)),
		agilla.WithReliableRadio(),
		agilla.WithSeed(9),
		agilla.WithEnergy(m),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	deaths := nw.Events(agilla.OfKind(agilla.EventEnergyExhausted))
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	used, capJ, ok := nw.Battery(agilla.Loc(1, 1))
	if !ok || capJ != m.CapacityJ {
		t.Fatalf("battery = %g/%g ok=%v", used, capJ, ok)
	}
	if used <= 0 {
		t.Fatal("warm-up beaconing drained nothing")
	}
	if _, _, ok := nw.Battery(nw.Base().Loc()); ok {
		t.Fatal("the base station must be mains powered")
	}
	// Run until the beacon+idle budget is gone.
	if err := nw.Run(4 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if life, _ := nw.Life(agilla.Loc(1, 1)); life != agilla.NodeDown {
		t.Fatalf("mote life = %v, want down after exhausting %g J", life, m.CapacityJ)
	}
	nw.Close()
	n := 0
	for ex := range deaths {
		if ex.UsedJ < m.CapacityJ {
			t.Errorf("exhausted below capacity: %v", ex)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("energy deaths = %d, want 2", n)
	}
}

func ptr[T any](v T) *T { return &v }

// roundTripSrc is a minimal there-and-back agent in Agilla assembly.
func roundTripSrc(far agilla.Location) string {
	return fmt.Sprintf(`
		pushloc %d %d
		smove
		pushloc 1 1
		smove
		halt
	`, far.X, far.Y)
}
