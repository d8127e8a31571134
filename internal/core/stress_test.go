package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

// TestSoakManyAgents floods a lossy network with randomly-behaving agents
// for several virtual minutes and checks the middleware's conservation
// invariants: no slot or instruction-memory leaks, no stuck reservations,
// no wedged engine, and every remaining agent in a coherent state.
func TestSoakManyAgents(t *testing.T) {
	d, err := NewDeployment(DeploymentSpec{Layout: topology.GridLayout(4, 4), Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(123))

	// A small zoo of behaviors exercising every long-running effect.
	behaviors := []func(x, y int16) string{
		func(x, y int16) string { // wanderer: hop to a random-ish neighbor, repeat a few times
			return fmt.Sprintf(`
			     pushc 3
			     setvar 0
			LOOP randnbr
			     rjumpc GO
			     pop
			     halt
			GO   smove
			     getvar 0
			     pushc 1
			     sub
			     dup
			     setvar 0
			     pushc 0
			     eq
			     rjumpc DONE
			     rjump LOOP
			DONE halt`)
		},
		func(x, y int16) string { // gossip: out a tuple, rinp it back from a peer
			return fmt.Sprintf(`
			     pushcl 777
			     pushc 1
			     pushloc %d %d
			     rout
			     pushcl 777
			     pushc 1
			     pushloc %d %d
			     rinp
			     halt`, x, y, x, y)
		},
		func(x, y int16) string { // sleeper: nap then die
			return "pushc 4\nsleep\nhalt"
		},
		func(x, y int16) string { // cloner: strong-clone to a fixed peer
			return fmt.Sprintf("pushloc %d %d\nsclone\nhalt", x, y)
		},
		func(x, y int16) string { // reactor: register, wait briefly via a self-triggered insert
			return `
			     pusht VALUE
			     pushc 1
			     pushcl HIT
			     regrxn
			     pushc 5
			     pushc 1
			     out
			     wait
			HIT  halt`
		},
	}

	// Inject waves of agents at random motes for 3 virtual minutes.
	for wave := 0; wave < 30; wave++ {
		x := int16(1 + rng.Intn(4))
		y := int16(1 + rng.Intn(4))
		px := int16(1 + rng.Intn(4))
		py := int16(1 + rng.Intn(4))
		src := behaviors[rng.Intn(len(behaviors))](px, py)
		code, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("wave %d: %v", wave, err)
		}
		// Direct creation at the mote; rejection for a full node is fine.
		_, _ = d.Node(topology.Loc(x, y)).CreateAgent(code)
		if err := d.Sim.Run(d.Sim.Now() + 6*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Drain: give all stragglers time to finish or settle.
	if err := d.Sim.Run(d.Sim.Now() + 2*time.Minute); err != nil {
		t.Fatal(err)
	}

	for _, n := range d.Nodes() {
		// Reservation accounting must return to zero once traffic drains.
		if n.reserve != 0 {
			t.Errorf("%v: leaked reservation %d", n.Loc(), n.reserve)
		}
		if in := openIn(n); len(in) != 0 {
			t.Errorf("%v: %d inbound transfers stuck", n.Loc(), len(in))
		}
		if out := openOut(n); len(out) != 0 {
			t.Errorf("%v: %d outbound transfers stuck", n.Loc(), len(out))
		}
		// Instruction memory charged equals live agents' code.
		want := 0
		for _, id := range n.AgentIDs() {
			a, _ := n.Agent(id)
			want += BlocksFor(len(a.Code))
		}
		if got := n.InstrMem().TotalBlocks() - n.InstrMem().FreeBlocks(); got != want {
			t.Errorf("%v: %d blocks charged, %d live", n.Loc(), got, want)
		}
		if n.NumAgents() > n.cfg.MaxAgents {
			t.Errorf("%v: %d agents exceeds limit", n.Loc(), n.NumAgents())
		}
		// Remaining agents must be parked in a waiting state, not dead
		// or phantom-running (the engine is idle now).
		for _, id := range n.AgentIDs() {
			st, _ := n.AgentInfo(id)
			switch st {
			case AgentWaiting, AgentBlocked, AgentSleeping, AgentReady, AgentRemote:
			default:
				t.Errorf("%v agent %d in state %v after drain", n.Loc(), id, st)
			}
		}
	}
}

// TestMigrationIntoFullNode verifies admission control: transfers toward a
// node with no free agent slots are refused and the agent survives at the
// sender with condition 0.
func TestMigrationIntoFullNode(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	dst := d.Node(topology.Loc(2, 1))
	sleeper := asm.MustAssemble("pushcl 30000\nsleep\nhalt")
	for i := 0; i < DefaultMaxAgents; i++ {
		if _, err := dst.CreateAgent(sleeper); err != nil {
			t.Fatal(err)
		}
	}

	src := d.Node(topology.Loc(1, 1))
	code := asm.MustAssemble(`
		     pushloc 2 1
		     smove
		     rjumpc GONE
		     pushcl 404
		     pushc 1
		     out
		     halt
		GONE halt
	`)
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 5*time.Second)

	if !hasMarker(src, 404) {
		t.Error("agent did not survive refusal at the full node")
	}
	if dst.NumAgents() != DefaultMaxAgents {
		t.Errorf("full node hosts %d agents", dst.NumAgents())
	}
}

// TestRoutIntoFullArena verifies that a remote out against a saturated
// tuple space reports failure (condition 0) instead of silently dropping.
func TestRoutIntoFullArena(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	dst := d.Node(topology.Loc(2, 1))
	// Saturate the 600-byte arena with minimal 4-byte tuples so no gap
	// remains for the incoming <1>.
	for {
		if err := dst.Space().Out(tuplespace.T(tuplespace.Int(9))); err != nil {
			break
		}
	}

	src := d.Node(topology.Loc(1, 1))
	code := asm.MustAssemble(`
		     pushc 1
		     pushc 1
		     pushloc 2 1
		     rout
		     rjumpc OK
		     pushcl 507
		     pushc 1
		     out      // "insert failed" marker
		     halt
		OK   halt
	`)
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 8*time.Second)
	if !hasMarker(src, 507) {
		t.Error("rout against a full arena must clear the condition")
	}
}

// TestReactionRegistryOverflowSurvivesMigration checks that an agent whose
// reactions cannot all be restored at the destination (registry full)
// still arrives and runs.
func TestReactionRegistryOverflowSurvivesMigration(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	dst := d.Node(topology.Loc(2, 1))
	// Fill the destination's 10-entry registry with dummy reactions.
	for i := 0; i < tuplespace.DefaultRegistryMax; i++ {
		if err := dst.Registry().Register(tuplespace.Reaction{
			AgentID:  9000 + uint16(i),
			Template: tuplespace.Tmpl(tuplespace.Int(int16(i))),
			PC:       0,
		}); err != nil {
			t.Fatal(err)
		}
	}

	src := d.Node(topology.Loc(1, 1))
	code := asm.MustAssemble(`
		pusht STRING
		pushc 1
		pushcl 0
		regrxn
		pushloc 2 1
		smove
		pushcl 31
		pushc 1
		out
		halt
	`)
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 5*time.Second)
	if !hasMarker(dst, 31) {
		t.Error("agent must arrive and run even when its reaction cannot be restored")
	}
}

// TestStoppedNodeDropsTraffic exercises the dead-mote path end to end.
func TestStoppedNodeDropsTraffic(t *testing.T) {
	d := quietDeployment(t, 3, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	mid := d.Node(topology.Loc(2, 1))
	mid.Stop()

	// The route (1,1)->(3,1) dies with the relay: greedy forwarding has
	// no alternative on a line.
	src := d.Node(topology.Loc(1, 1))
	code := asm.MustAssemble(`
		     pushc 1
		     pushc 1
		     pushloc 3 1
		     rout
		     rjumpc OK
		     pushcl 666
		     pushc 1
		     out
		     halt
		OK   halt
	`)
	if _, err := src.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	// Default retries: 3 attempts × 2s.
	runFor(t, d, 10*time.Second)
	if !hasMarker(src, 666) {
		t.Error("rout through a dead relay must fail cleanly")
	}
}
