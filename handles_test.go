package agilla_test

// Agent handles read the registry the Network keeps from its own trace:
// these tests pin what a handle reports through births, clones, moves,
// kills and node deaths, and that keeping the registry costs a host
// nothing extra while no one subscribes to events.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/program"
)

// warmNetwork builds a warmed-up w×h grid on the reliable radio.
func warmNetwork(t *testing.T, w, h int, seed int64) *agilla.Network {
	t.Helper()
	nw, err := agilla.New(agilla.WithTopology(agilla.Grid(w, h)), agilla.WithReliableRadio(), agilla.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	return nw
}

// create hosts p directly on the node at loc and returns its handle.
func create(t *testing.T, nw *agilla.Network, loc agilla.Location, src string) *agilla.Agent {
	t.Helper()
	id, err := nw.Node(loc).CreateAgent(program.MustParse(src).Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return nw.Agent(id)
}

const (
	sleeper   = "LOOP pushc 8\nsleep\nrjump LOOP"
	roundTrip = "pushloc 3 1\nsmove\npushloc 1 1\nsmove\nhalt"
)

// TestAgentIDReuse: a node's 8-bit agent counter wraps, so long
// deployments reuse 16-bit agent IDs. A creation landing on a dead
// record must start a fresh lifetime, not resurrect the dead agent's
// stats.
func TestAgentIDReuse(t *testing.T) {
	nw, err := agilla.New(agilla.WithTopology(agilla.Grid(2, 1)), agilla.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	base := nw.Base()
	code := program.MustParse("halt").Bytes()
	first, err := base.CreateAgent(code)
	if err != nil {
		t.Fatal(err)
	}
	if !base.KillAgent(first) {
		t.Fatal("kill failed")
	}
	// Burn through the remaining 255 counter values so the next ID
	// wraps back to the first.
	for i := 0; i < 255; i++ {
		id, err := base.CreateAgent(code)
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		base.KillAgent(id)
	}
	if ag := nw.Agent(first); !ag.Done() {
		t.Fatalf("pre-reuse handle should read dead: %v", ag)
	}

	reused, err := base.CreateAgent(code)
	if err != nil {
		t.Fatal(err)
	}
	if reused != first {
		t.Fatalf("expected ID reuse after wrap: first=%d reused=%d", first, reused)
	}
	ag := nw.Agent(reused)
	if ag.Done() || !ag.Alive() {
		t.Fatalf("fresh agent under a reused ID reads dead: %v", ag)
	}
	if info := ag.Info(); info.Hops != 0 || info.Clones != 0 || info.Halted || info.Err != nil || info.DoneAt != 0 {
		t.Fatalf("reused ID inherited the dead lifetime's record: %+v", info)
	}
	if ag.Host() != base {
		t.Fatalf("reused agent hosted at %v, want the base station", ag.Host())
	}
}

// TestCensusCountsWrappedLifetimes: a lifetime opened under a reused ID
// replaces the dead record, but the census still counts it, so spawned
// adds up to halted + died + live past a counter wrap.
func TestCensusCountsWrappedLifetimes(t *testing.T) {
	const agents = 300
	sc := agilla.Scenario{
		Name:    "wrap-census",
		Options: []agilla.Option{agilla.WithTopology(agilla.Grid(2, 1))},
		Play: func(_ context.Context, nw *agilla.Network, _ *agilla.Metrics) error {
			base := nw.Base()
			code := program.MustParse(sleeper).Bytes()
			for i := 0; i < agents; i++ {
				id, err := base.CreateAgent(code)
				if err != nil {
					return err
				}
				if !base.KillAgent(id) {
					return fmt.Errorf("agent %d: kill failed", i)
				}
			}
			return nil
		},
	}
	m, err := sc.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if m.AgentsSpawned != agents || m.AgentsDied != agents {
		t.Fatalf("census spawned %d, died %d; want %d each", m.AgentsSpawned, m.AgentsDied, agents)
	}
}

// TestHandleDiesWithItsNode: a scripted kill takes the hosted agent
// down, and its handle reads dead there with ErrNodeDown.
func TestHandleDiesWithItsNode(t *testing.T) {
	nw := warmNetwork(t, 3, 1, 11)
	victim := agilla.Loc(2, 1)
	ag := create(t, nw, victim, sleeper)
	nw.Script(agilla.KillAt(nw.Now()+3*time.Second, victim))
	if err := nw.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !ag.Done() || ag.State() != agilla.AgentDead || !errors.Is(ag.Err(), agilla.ErrNodeDown) {
		t.Fatalf("handle after the kill: %v, err %v; want dead with ErrNodeDown", ag, ag.Err())
	}
	if ag.Host() != nil || ag.Location() != victim {
		t.Fatalf("dead agent hosted by %v at %v, want no host at %v", ag.Host(), ag.Location(), victim)
	}
}

// TestHandleSurvivesHostFailureMidMigration: an agent strong-moves toward
// a mote that dies while the transfer is in flight; the sender detects
// the failure and resumes the agent, and the handle follows the
// survivor (§3.2).
func TestHandleSurvivesHostFailureMidMigration(t *testing.T) {
	nw := warmNetwork(t, 3, 1, 11)
	ag := create(t, nw, agilla.Loc(1, 1), roundTrip)
	// Kill the relay/destination the instant the hop is mid-air.
	nw.Script(agilla.KillAt(nw.Now()+80*time.Millisecond, agilla.Loc(2, 1)))
	if err := nw.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ag.Err() != nil {
		t.Fatalf("agent died: %v", ag.Err())
	}
	if ag.Host() == nil && !ag.Halted() {
		t.Fatalf("agent neither hosted nor halted: %+v", ag.Info())
	}
	if nw.Base().Stats().MigrationsFail+nw.Node(agilla.Loc(1, 1)).Stats().MigrationsFail == 0 {
		t.Fatal("expected a failed handoff against the dead mote")
	}
}

// TestHandleReportsCrashDuringFinalize: a mote that dies after it has
// acknowledged a whole transfer but before the agent is instantiated
// holds the only copy of that agent; the handle must read dead with
// ErrNodeDown, not AgentMigrating forever.
func TestHandleReportsCrashDuringFinalize(t *testing.T) {
	nw := warmNetwork(t, 2, 1, 11)
	dst := agilla.Loc(2, 1)
	ag := create(t, nw, agilla.Loc(1, 1), "pushloc 2 1\nsmove\npushloc 1 1\nsmove\nhalt")
	// The sender credits the hop when the receiver's last ack arrives;
	// the receiver instantiates the agent a reassembly overhead later.
	hit, err := nw.RunUntil(func() bool { return ag.Hops() == 1 }, 30*time.Second)
	if err != nil || !hit {
		t.Fatalf("the hop never completed (hit=%v err=%v)", hit, err)
	}
	if _, hosted := nw.Node(dst).AgentInfo(ag.ID()); hosted || ag.State() != agilla.AgentMigrating {
		t.Fatalf("agent not caught in the finalize window: hosted=%v state=%v", hosted, ag.State())
	}
	nw.Script(agilla.KillAt(nw.Now(), dst))
	if err := nw.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !ag.Done() || !errors.Is(ag.Err(), agilla.ErrNodeDown) || ag.Location() != dst {
		t.Fatalf("handle = %v, err %v; want dead at %v with ErrNodeDown", ag, ag.Err(), dst)
	}
}

// TestHandleFollowsAMove: an agent riding a relocated mote resolves to
// the new address, so Location and Host keep working.
func TestHandleFollowsAMove(t *testing.T) {
	nw := warmNetwork(t, 4, 1, 11)
	from, to := agilla.Loc(4, 1), agilla.Loc(1, 2)
	rider := create(t, nw, from, sleeper)
	nw.Script(agilla.MoveAt(nw.Now()+time.Second, from, to))
	if err := nw.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rider.Location() != to {
		t.Fatalf("rider at %v, want %v", rider.Location(), to)
	}
	if host := rider.Host(); host == nil || host != nw.Node(to) {
		t.Fatalf("rider hosted by %v, want the moved node", host)
	}
	if rider.State() != agilla.AgentSleeping && rider.State() != agilla.AgentReady {
		t.Fatalf("rider state %v, want the live engine state", rider.State())
	}
}

// TestCloneHandles: a remote sclone and a local sclone each open a
// record attributed to the parent; a clone starts its own lifetime with
// no hops, and the parent counts both.
func TestCloneHandles(t *testing.T) {
	nw := warmNetwork(t, 2, 1, 2)
	home := agilla.Loc(1, 1)
	// Only the parent's node holds <"hom">, so the remote clone halts
	// and the parent alone clones again, locally.
	if err := nw.Space(home).Out(agilla.T(agilla.Str("hom"))); err != nil {
		t.Fatal(err)
	}
	p := program.MustParse(`
		pushloc 2 1
		sclone          // the remote clone resumes below at (2,1)
		pushn hom
		pushc 1
		inp
		rjumpc HOME
		halt            // the remote clone
	HOME	pushloc 1 1
		sclone          // the local clone resumes below
		halt`)
	parent, err := nw.Launch(p, home)
	if err != nil {
		t.Fatal(err)
	}
	allDone := func() bool {
		for _, a := range nw.Agents() {
			if !a.Done() {
				return false
			}
		}
		return parent.Clones() == 2
	}
	if ok, err := nw.RunUntil(allDone, time.Minute); err != nil || !ok {
		t.Fatalf("the clones never finished: clones=%d err=%v", parent.Clones(), err)
	}
	if parent.Hops() != 1 || parent.Parent() != nil {
		t.Fatalf("parent: %v with parent %v, want one injection hop and no parent", parent, parent.Parent())
	}
	at := map[agilla.Location]int{}
	for _, a := range nw.Agents() {
		if a.ID() == parent.ID() {
			continue
		}
		if pa := a.Parent(); pa == nil || pa.ID() != parent.ID() {
			t.Fatalf("%v: parent %v, want %d", a, pa, parent.ID())
		}
		if a.Hops() != 0 || !a.Halted() {
			t.Fatalf("clone %v: hops %d halted %v, want 0 hops and a halt", a, a.Hops(), a.Halted())
		}
		at[a.Location()]++
	}
	if at[home] != 1 || at[agilla.Loc(2, 1)] != 1 {
		t.Fatalf("clones at %v, want one local and one remote", at)
	}
}

// TestKillAgentReportsDeath: a host kill is a death caused by ErrKilled.
// The handle reads done, the event stream delivers it, and the per-node
// death counter counts it, so a scenario's census adds up.
func TestKillAgentReportsDeath(t *testing.T) {
	nw := warmNetwork(t, 2, 1, 3)
	defer nw.Close()
	deaths := nw.Events(agilla.OfKind(agilla.EventAgentDied))
	ag := create(t, nw, agilla.Loc(2, 1), sleeper)
	if err := nw.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	before := agilla.DeploymentForTest(nw).TotalStats().AgentsDied
	if !ag.Host().KillAgent(ag.ID()) {
		t.Fatal("kill found no agent")
	}
	if !ag.Done() || !errors.Is(ag.Err(), agilla.ErrKilled) || ag.Halted() || ag.Host() != nil {
		t.Fatalf("killed handle: %v, err %v, halted %v; want dead with ErrKilled", ag, ag.Err(), ag.Halted())
	}
	if got := agilla.DeploymentForTest(nw).TotalStats().AgentsDied; got != before+1 {
		t.Fatalf("AgentsDied went %d -> %d, want a rise of one", before, got)
	}
	nw.Close()
	var got []agilla.Event
	for e := range deaths {
		got = append(got, e)
	}
	if len(got) != 1 || got[0].AgentID != ag.ID() || !errors.Is(got[0].Err, agilla.ErrKilled) || got[0].Node != agilla.Loc(2, 1) {
		t.Fatalf("death events = %v, want one for agent %d with ErrKilled", got, ag.ID())
	}

	// The census: spawned = halted + died + live.
	sc := agilla.Scenario{
		Name:    "kill-census",
		Options: []agilla.Option{agilla.WithTopology(agilla.Grid(2, 1)), agilla.WithReliableRadio()},
		Agents: []agilla.AgentSpec{
			{Name: "halts", Program: program.MustParse("halt"), At: agilla.Loc(1, 1)},
			{Name: "killed", Program: program.MustParse(sleeper), At: agilla.Loc(2, 1)},
			{Name: "lives", Program: program.MustParse(sleeper), At: agilla.Loc(2, 1)},
		},
		Play: func(_ context.Context, nw *agilla.Network, m *agilla.Metrics) error {
			if err := nw.Run(10 * time.Second); err != nil {
				return err
			}
			n := nw.Node(agilla.Loc(2, 1))
			if ids := n.AgentIDs(); len(ids) != 2 || !n.KillAgent(ids[0]) {
				return fmt.Errorf("hosted %v, want two sleepers to kill one of", ids)
			}
			return nw.Run(time.Second)
		},
	}
	m, err := sc.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if m.AgentsSpawned != 3 || m.AgentsHalted != 1 || m.AgentsDied != 1 {
		t.Fatalf("census spawned %d, halted %d, died %d; want 3 = 1 + 1 + 1 live",
			m.AgentsSpawned, m.AgentsHalted, m.AgentsDied)
	}
}

// TestOutAllocsWithoutSubscribers: the taps that keep the registry are
// always installed, but with nothing subscribed a tuple insertion builds
// no event: Space.Out allocates what it did before the taps existed, one
// allocation per insertion.
func TestOutAllocsWithoutSubscribers(t *testing.T) {
	nw, err := agilla.New(agilla.WithTopology(agilla.Grid(3, 3)), agilla.WithReliableRadio(), agilla.WithSeed(1), agilla.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	sp := nw.Space(agilla.Loc(2, 2))
	tup := agilla.T(agilla.Str("abc"), agilla.Int(1))
	tmpl := agilla.Tmpl(agilla.Str("abc"), agilla.Int(1))
	allocs := testing.AllocsPerRun(200, func() {
		if err := sp.Out(tup); err != nil {
			t.Fatal(err)
		}
		sp.Inp(tmpl)
	})
	if allocs > 1 {
		t.Fatalf("Space.Out with no subscriber allocates %v per op, want at most 1", allocs)
	}
}

// TestConcurrentInjectionsBothSettle: two agents launched at once toward
// the same mote each need 11 of its 20 code blocks. The mote accepts the
// first transfer and refuses the second until the first agent's blocks
// are free again, so every acknowledged transfer is finalized into an
// agent: both handles end halted or dead, none reads migrating forever,
// and the census adds up.
func TestConcurrentInjectionsBothSettle(t *testing.T) {
	p := program.MustParse(strings.Repeat("pushn abc\nloc\npushc 2\nout\n", 30) + "halt\n")
	if p.Len() != 241 {
		t.Fatalf("program is %d bytes, want 241 (11 code blocks)", p.Len())
	}
	at := agilla.Loc(1, 1)
	live := 0
	sc := agilla.Scenario{
		Name:     "concurrent injections",
		Options:  []agilla.Option{agilla.WithTopology(agilla.Grid(6, 2)), agilla.WithReliableRadio()},
		Agents:   []agilla.AgentSpec{{Program: p, At: at}, {Program: p, At: at}},
		Duration: 30 * time.Second,
		Collect: func(nw *agilla.Network, _ *agilla.Metrics) {
			for _, ag := range nw.Agents() {
				if !ag.Done() {
					t.Errorf("agent %d never settled: %v", ag.ID(), ag)
				}
			}
			live = nw.TotalAgents()
		},
	}
	m, err := sc.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if m.AgentsSpawned != m.AgentsHalted+m.AgentsDied+live || m.AgentsSpawned != 2 {
		t.Errorf("census: %d spawned, %d halted, %d died, %d live; want 2 spawned, each halted or dead",
			m.AgentsSpawned, m.AgentsHalted, m.AgentsDied, live)
	}
}
