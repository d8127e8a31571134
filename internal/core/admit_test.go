package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/wire"
)

func TestBlocksFor(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 0}, {-3, 0}, {1, 1}, {22, 1}, {23, 2}, {44, 2}, {45, 3}, {440, 20},
	}
	for _, tt := range tests {
		if got := BlocksFor(tt.n); got != tt.want {
			t.Errorf("BlocksFor(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

// program returns a program of n bytes that halts at once.
func program(n int) []byte { return bytes.Repeat(asm.MustAssemble("halt"), n) }

// TestAdmitsCodeUpToTheBudget: a default mote's instruction memory is 20
// blocks of 22 bytes (§3.2), so it admits a 440-byte program and refuses
// a 441-byte one.
func TestAdmitsCodeUpToTheBudget(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	a, b := d.Node(topology.Loc(1, 1)), d.Node(topology.Loc(2, 1))
	if _, err := a.CreateAgent(program(440)); err != nil {
		t.Fatalf("a 440-byte program: %v", err)
	}
	if got := a.codeBlocks(); got != DefaultCodeBlocks {
		t.Errorf("a 440-byte program takes %d blocks, want %d", got, DefaultCodeBlocks)
	}
	if _, err := b.CreateAgent(program(441)); !errors.Is(err, ErrNoInstrMem) {
		t.Errorf("a 441-byte program: got %v, want ErrNoInstrMem", err)
	}
	if b.NumAgents() != 0 || b.codeBlocks() != 0 {
		t.Errorf("the refused program left %d agents and %d blocks", b.NumAgents(), b.codeBlocks())
	}
}

// TestFullCodeFreesWhenItsAgentLeaves: a mote whose instruction memory one
// agent fills refuses the next program until that agent has left.
func TestFullCodeFreesWhenItsAgentLeaves(t *testing.T) {
	d := quietDeployment(t, 1, 1)
	n := d.Node(topology.Loc(1, 1))
	if _, err := n.CreateAgent(program(440)); err != nil {
		t.Fatal(err)
	}
	next := asm.MustAssemble("wait")
	if _, err := n.CreateAgent(next); !errors.Is(err, ErrNoInstrMem) {
		t.Fatalf("a mote full of code: got %v, want ErrNoInstrMem", err)
	}
	runFor(t, d, time.Second) // the first agent halts and is reclaimed
	if n.NumAgents() != 0 {
		t.Fatalf("%d agents hosted, want the first to have left", n.NumAgents())
	}
	if _, err := n.CreateAgent(next); err != nil {
		t.Errorf("after the agent left: %v", err)
	}
}

// TestAdmitRefusesAHostedID: an agent whose ID the mote already hosts is
// refused with neither of the capacity errors, and goes back to the free
// list.
func TestAdmitRefusesAHostedID(t *testing.T) {
	d := quietDeployment(t, 1, 1)
	n := d.Node(topology.Loc(1, 1))
	code := asm.MustAssemble("wait")
	id, err := n.CreateAgent(code)
	if err != nil {
		t.Fatal(err)
	}
	a := n.newAgent()
	a.ID, a.Code = id, append(a.Code, code...)
	_, err = n.admitRecord(a)
	if err == nil || errors.Is(err, ErrAgentLimit) || errors.Is(err, ErrNoInstrMem) {
		t.Fatalf("admitting hosted ID %#04x again: got %v, want a duplicate refusal", id, err)
	}
	if n.NumAgents() != 1 {
		t.Errorf("after the refusal: %d agents hosted, want 1", n.NumAgents())
	}
	if l := n.agentFree; len(l) == 0 || l[len(l)-1] != a {
		t.Error("the refused agent is not back on the free list")
	}
}

// TestOpenTransferCountsAgainstCreate: from its state message until it
// ends, an inbound transfer holds an agent slot and its code's blocks, so
// CreateAgent cannot take what an acked agent will need. Once the
// transfer aborts both are free again; once it finalizes, the agent it
// installed holds them instead.
func TestOpenTransferCountsAgainstCreate(t *testing.T) {
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
	const id = 0x0107
	from, at := topology.Loc(1, 1), topology.Loc(2, 1)
	frames := [][]byte{wire.StateMsg{AgentID: id, Seq: 1, Kind: wire.MigStrongMove, Dest: at,
		CodeLen: uint16(len(code)), NCode: 2}.Append(nil)}
	for i := range uint8(2) {
		m := wire.CodeMsg{AgentID: id, Seq: 1, Index: i}
		copy(m.Block[:], code[int(i)*CodeBlockSize:])
		frames = append(frames, m.Append(nil))
	}
	wait := asm.MustAssemble("wait")

	for _, finalize := range []bool{false, true} {
		d := quietDeployment(t, 2, 1)
		if err := d.WarmUp(); err != nil {
			t.Fatal(err)
		}
		n := d.Node(at)
		send := func(p []byte) {
			n.ReceiveFrame(radio.Frame{Src: from, Dst: at, Kind: radio.KindMigrate, Payload: p})
		}
		send(frames[0])
		if len(openIn(n)) != 1 {
			t.Fatalf("finalize=%v: %d transfers open, want 1", finalize, len(openIn(n)))
		}
		// 19 blocks fit an empty mote, but not beside the transfer's 2.
		if _, err := n.CreateAgent(program(19 * CodeBlockSize)); !errors.Is(err, ErrNoInstrMem) {
			t.Fatalf("finalize=%v: 19 blocks beside an open 2-block transfer: got %v, want ErrNoInstrMem", finalize, err)
		}
		for range DefaultMaxAgents - 1 {
			if _, err := n.CreateAgent(wait); err != nil {
				t.Fatalf("finalize=%v: %v", finalize, err)
			}
		}
		if _, err := n.CreateAgent(wait); !errors.Is(err, ErrAgentLimit) {
			t.Fatalf("finalize=%v: a fourth agent beside an open transfer: got %v, want ErrAgentLimit", finalize, err)
		}
		if finalize {
			send(frames[1])
			send(frames[2])
		}
		runFor(t, d, time.Second) // finalizes, or stalls and aborts
		if len(openIn(n)) != 0 {
			t.Fatalf("finalize=%v: the transfer is still open", finalize)
		}
		wantAgents, wantBlocks := DefaultMaxAgents-1, DefaultMaxAgents-1
		if finalize {
			wantAgents, wantBlocks = wantAgents+1, wantBlocks+2
		}
		if n.NumAgents() != wantAgents || n.slots() != wantAgents || n.codeBlocks() != wantBlocks {
			t.Errorf("finalize=%v: %d agents, %d slots, %d blocks; want %d, %d, %d",
				finalize, n.NumAgents(), n.slots(), n.codeBlocks(), wantAgents, wantAgents, wantBlocks)
		}
		_, err := n.CreateAgent(program((DefaultCodeBlocks - wantBlocks) * CodeBlockSize))
		if finalize && !errors.Is(err, ErrAgentLimit) {
			t.Errorf("the arrived agent does not hold its slot: got %v, want ErrAgentLimit", err)
		}
		if !finalize && err != nil {
			t.Errorf("after the abort, the transfer's slot and blocks: %v", err)
		}
	}
}
