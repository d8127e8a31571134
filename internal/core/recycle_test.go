package core

import (
	"slices"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/network"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
	"github.com/agilla-go/agilla/internal/wire"
)

// TestRecycledRecordNeverResumesTheDead kills an agent while something
// still points at its record — an outbound transfer awaiting its ack, a
// remote operation awaiting its reply, the run ring, a sleep timer — then
// fills the mote with new agents, which drains the shard's free lists,
// and only then lets the late ack, reply, ring slot or timeout arrive.
// None may reach a new agent through a recycled record: every new
// agent's PC, stack, condition and state stay as they were, and no event
// after the kill names the killed agent.
func TestRecycledRecordNeverResumesTheDead(t *testing.T) {
	dropAll := func(radio.Frame, topology.Location) bool { return true }
	for _, tc := range []struct {
		name string
		code string
		drop func(radio.Frame, topology.Location) bool
		// until is when the agent is in the situation, and when to kill it.
		until func(n *Node, id uint16) bool
		// late delivers what arrives after the kill.
		late func(t *testing.T, d *Deployment, n *Node, id uint16, key migKey, reqID uint16)
		// free is whether the killed record is free before the late step:
		// one still in the run ring is freed only when the engine dequeues
		// it.
		free bool
	}{
		{
			name: "transfer awaiting its ack",
			code: "pushc 5\npushloc 2 1\nsmove\nhalt",
			drop: dropAll,
			until: func(n *Node, id uint16) bool {
				out := openOut(n)
				return len(out) == 1 && out[0].started
			},
			late: func(t *testing.T, d *Deployment, n *Node, id uint16, key migKey, _ uint16) {
				ack := wire.AckMsg{AgentID: key.agentID, Seq: key.seq, Of: wire.MsgState}.Encode()
				n.ReceiveFrame(radio.Frame{Src: topology.Loc(2, 1), Dst: n.Loc(), Kind: radio.KindMigrateCtl, Payload: ack})
				runFor(t, d, 2*time.Second) // every retransmission timeout
			},
			free: true,
		},
		{
			name: "rrdp awaiting its reply",
			code: "pusht VALUE\npushc 1\npushloc 2 1\nrrdp\nhalt",
			drop: dropAll,
			until: func(n *Node, id uint16) bool {
				st, _ := n.AgentInfo(id)
				return st == AgentRemote
			},
			late: func(t *testing.T, d *Deployment, n *Node, id uint16, _ migKey, reqID uint16) {
				reply := wire.RemoteReply{ReqID: reqID, OK: true, Tuple: tuplespace.T(tuplespace.Int(99))}.Encode()
				env := wire.Envelope{Src: topology.Loc(2, 1), Dst: n.Loc(), TTL: 4, Kind: uint8(radio.KindRemoteTSR), Body: reply}
				n.ReceiveFrame(radio.Frame{Src: topology.Loc(2, 1), Dst: n.Loc(), Kind: radio.KindRemoteTSR, Payload: env.Encode()})
				runFor(t, d, RemoteOpBudget(n.Config())+time.Second) // every retransmission timeout
			},
			free: true,
		},
		{
			name: "queued in the run ring",
			code: "pushc 5\nhalt",
			// Killed before its first step, while its slot waits in the ring.
			until: func(*Node, uint16) bool { return true },
			late: func(t *testing.T, d *Deployment, _ *Node, _ uint16, _ migKey, _ uint16) {
				runFor(t, d, time.Second)
			},
		},
		{
			name: "sleeping",
			code: "pushc 16\nsleep\nhalt", // two seconds
			until: func(n *Node, id uint16) bool {
				st, _ := n.AgentInfo(id)
				return st == AgentSleeping
			},
			late: func(t *testing.T, d *Deployment, _ *Node, _ uint16, _ migKey, _ uint16) {
				runFor(t, d, 3*time.Second) // past the killed agent's wake-up
			},
			free: true,
		},
	} {
		for _, workers := range []int{1, 2} {
			t.Run(tc.name+"/workers="+itoa(workers), func(t *testing.T) {
				params := radio.ZeroLoss()
				d, err := NewDeployment(DeploymentSpec{
					Layout: topology.GridLayout(2, 1), Seed: 9, Radio: &params, Workers: workers,
					// One beacon round for the warm-up, then silence.
					Node: Config{Network: network.Config{BeaconEvery: time.Hour, ExpireAfter: 10 * time.Hour}},
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := d.WarmUp(); err != nil {
					t.Fatal(err)
				}
				d.Medium.Drop = tc.drop
				n := d.Node(topology.Loc(1, 1))
				id, err := n.CreateAgent(asm.MustAssemble(tc.code))
				if err != nil {
					t.Fatal(err)
				}
				if ok, _ := d.Sim.RunUntil(func() bool { return tc.until(n, id) }, d.Sim.Now()+time.Second); !ok {
					t.Fatal("the agent never got into the situation")
				}
				var key migKey
				if out := openOut(n); len(out) == 1 {
					key = out[0].key
				}
				var reqID uint16
				if n.ses != nil && len(n.ses.remote) == 1 {
					reqID = n.ses.remote[0].req.ReqID
				}
				old := n.hosted(id)

				if !n.KillAgent(id) {
					t.Fatal("the agent was gone before the kill")
				}
				var named []string
				note := func(what string, ids ...uint16) {
					if slices.Contains(ids, id) {
						named = append(named, what)
					}
				}
				d.Trace.AgentArrived = func(_ topology.Location, a uint16, _ wire.MigKind, _ topology.Location) { note("arrived", a) }
				d.Trace.AgentCloned = func(_ topology.Location, p, c uint16) { note("cloned", p, c) }
				d.Trace.AgentHalted = func(_ topology.Location, a uint16) { note("halted", a) }
				d.Trace.AgentDied = func(_ topology.Location, a uint16, _ error) { note("died", a) }
				d.Trace.MigrationStarted = func(_ topology.Location, a uint16, _ wire.MigKind, _ topology.Location) { note("migration started", a) }
				d.Trace.MigrationDone = func(_ topology.Location, a uint16, _ wire.MigKind, _ topology.Location, _ bool) {
					note("migration done", a)
				}
				d.Trace.RemoteDone = func(_ topology.Location, a uint16, _ vm.RemoteKind, _ topology.Location, _ bool, _ time.Duration) {
					note("remote done", a)
				}
				d.Trace.ReactionFired = func(_ topology.Location, a uint16, _ tuplespace.Tuple) { note("reaction", a) }
				d.Trace.InstrExecuted = func(_ topology.Location, a uint16, _ vm.Op) { note("instruction", a) }

				// Fill the mote: each new agent pushes two values and sleeps
				// past the end of the test.
				var ids []uint16
				for n.NumAgents() < n.Config().MaxAgents {
					nid, err := n.CreateAgent(asm.MustAssemble("pushc 7\npushc 8\npushcl 400\nsleep\nhalt"))
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, nid)
				}
				reused := slices.ContainsFunc(ids, func(nid uint16) bool { return n.hosted(nid) == old })
				if reused != tc.free {
					t.Fatalf("a new agent took the killed agent's record: %v, want %v", reused, tc.free)
				}
				runFor(t, d, 100*time.Millisecond)
				type snap struct {
					pc    uint16
					cond  int16
					stack []tuplespace.Value
					state AgentState
				}
				take := func() []snap {
					var s []snap
					for _, nid := range ids {
						a, ok := n.Agent(nid)
						if !ok {
							t.Fatalf("agent %#x is gone", nid)
						}
						st, _ := n.AgentInfo(nid)
						s = append(s, snap{a.PC, a.Condition, slices.Clone(a.StackSlice()), st})
					}
					return s
				}
				before := take()
				for i, s := range before {
					if s.state != AgentSleeping || len(s.stack) != 2 {
						t.Fatalf("new agent %#x: %+v, want asleep over a two-value stack", ids[i], s)
					}
				}

				tc.late(t, d, n, id, key, reqID)
				after := take()
				for i := range before {
					if !slices.Equal(before[i].stack, after[i].stack) || before[i].pc != after[i].pc ||
						before[i].cond != after[i].cond || before[i].state != after[i].state {
						t.Errorf("new agent %#x changed: %+v -> %+v", ids[i], before[i], after[i])
					}
				}
				if len(named) > 0 {
					t.Errorf("events after the kill named the killed agent: %v", named)
				}
				if !tc.free && !slices.Contains(n.recFree, old) {
					t.Error("the killed record did not come back once the engine dequeued it")
				}
				if st := n.Stats(); st.AgentsDied != 1 {
					t.Errorf("%d deaths, want the one kill", st.AgentsDied)
				}
			})
		}
	}
}
