//go:build race

package radio

import (
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
)

// TestRetainedPayloadReadsAsPoison: in race-detector builds a receiver
// that keeps an alias of its payload instead of a copy finds poison there
// once ReceiveFrame has returned.
func TestRetainedPayloadReadsAsPoison(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, topology.Grid{}, ZeroLoss())
	var kept []byte
	if err := m.Attach(topology.Loc(1, 1), &captureNode{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(topology.Loc(2, 1), receiverFunc(func(f Frame) { kept = f.Payload })); err != nil {
		t.Fatal(err)
	}
	m.Send(Frame{Src: topology.Loc(1, 1), Dst: topology.Loc(2, 1), Kind: KindRemoteTS, Payload: []byte{1, 2, 3}})
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(kept) != 3 {
		t.Fatalf("receiver kept %d bytes, want 3", len(kept))
	}
	for i, b := range kept {
		if b != poisonByte {
			t.Fatalf("retained payload byte %d reads %#x, want the poison %#x", i, b, poisonByte)
		}
	}
}
