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
	"github.com/agilla-go/agilla/internal/wire"
)

// TestBrownoutOnSend: a mote whose battery empties keying the radio
// crashes inside the send, and Crash releases the session record that was
// sending while the sender goes on to arm the record's timer. The timer
// fires into the released record harmlessly, no agent is admitted on the
// dead mote, and once the mote is back up the same kind of session runs
// to completion on the shard's free lists.
func TestBrownoutOnSend(t *testing.T) {
	peer := topology.Loc(2, 1)
	// transfer delivers a complete strong move of a halting agent to n,
	// hop by hop from peer or, with e2e, in routed envelopes.
	transfer := func(n *Node, seq uint16, e2e bool) {
		code := asm.MustAssemble("halt")
		msgs := [][]byte{
			wire.StateMsg{AgentID: 0x0203, Seq: seq, Kind: wire.MigStrongMove, Dest: n.Loc(), CodeLen: uint16(len(code)), NCode: 1}.Encode(),
			wire.CodeMsg{AgentID: 0x0203, Seq: seq, Block: [CodeBlockSize]byte{code[0]}}.Encode(),
		}
		for _, m := range msgs {
			f := radio.Frame{Src: peer, Dst: n.Loc(), Kind: radio.KindMigrate, Payload: m}
			if e2e {
				f.Kind = radio.KindMigrateRouted
				f.Payload = wire.Envelope{Src: peer, Dst: n.Loc(), TTL: 4, Kind: uint8(radio.KindMigrateRouted), Body: m}.Encode()
			}
			n.ReceiveFrame(f)
		}
	}
	create := func(src string) func(*testing.T, *Node, uint16) {
		return func(t *testing.T, n *Node, _ uint16) {
			if _, err := n.CreateAgent(asm.MustAssemble(src)); err != nil {
				t.Fatal(err)
			}
		}
	}
	move := create("pushloc 2 1\nsmove\nhalt")
	for _, tc := range []struct {
		name string
		e2e  bool
		// start opens a session whose first send browns n out; done
		// reports whether a second one, started the same way, completed.
		start func(t *testing.T, n *Node, round uint16)
		done  func(st NodeStats) bool
	}{
		{"outbound transfer", false, move, func(st NodeStats) bool { return st.MigrationsOK == 1 }},
		{"outbound end-to-end transfer", true, move, func(st NodeStats) bool { return st.MigrationsOK == 1 }},
		{"inbound transfer's ack", false, func(_ *testing.T, n *Node, round uint16) { transfer(n, round, false) },
			func(st NodeStats) bool { return st.AgentsHalted == 1 }},
		{"inbound end-to-end transfer's completion ack", true, func(_ *testing.T, n *Node, round uint16) { transfer(n, round, true) },
			func(st NodeStats) bool { return st.AgentsHalted == 1 }},
		{"remote operation", false, create("pusht VALUE\npushc 1\npushloc 2 1\nrrdp\nhalt"),
			func(st NodeStats) bool { return st.RemoteOK == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := radio.ZeroLoss()
			d, err := NewDeployment(DeploymentSpec{
				Layout: topology.GridLayout(2, 1), Seed: 4, Radio: &params,
				Node: Config{
					EndToEndMigration: tc.e2e,
					// One beacon round for the warm-up, then silence.
					Network: network.Config{BeaconEvery: time.Hour, ExpireAfter: 10 * time.Hour},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.WarmUp(); err != nil {
				t.Fatal(err)
			}
			if err := d.Node(peer).Space().Out(tuplespace.T(tuplespace.Int(44))); err != nil {
				t.Fatal(err)
			}
			n := d.Node(topology.Loc(1, 1))
			n.net.OnSend = func(int) {
				n.net.OnSend = nil
				n.Crash(CauseEnergy)
			}
			tc.start(t, n, 1)
			runFor(t, d, 10*time.Second) // past every timer the session armed
			if n.Life() != NodeDown || n.NumAgents() != 0 {
				t.Fatalf("after the brownout: %v with %d agents, want down with none", n.Life(), n.NumAgents())
			}
			if twice(n.outFree) || twice(n.inFree) || twice(n.remFree) {
				t.Fatal("a released session record is on its free list twice")
			}

			n.Recover()
			runFor(t, d, d.WarmUpSpan()) // the mote relearns its neighbour
			before := n.Stats()
			tc.start(t, n, 2)
			runFor(t, d, 10*time.Second)
			st := n.Stats()
			st.MigrationsOK -= before.MigrationsOK
			st.AgentsHalted -= before.AgentsHalted
			st.RemoteOK -= before.RemoteOK
			if !tc.done(st) {
				t.Fatalf("after recovery the session did not complete: %+v", st)
			}
		})
	}
}

// twice reports whether an entry of l is repeated.
func twice[T comparable](l []T) bool {
	for i, v := range l {
		if slices.Contains(l[i+1:], v) {
			return true
		}
	}
	return false
}
