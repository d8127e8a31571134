package agents

import (
	"testing"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/vm"
)

func TestAllAgentsAssemble(t *testing.T) {
	target := topology.Loc(5, 1)
	home := topology.Loc(0, 0)
	programs := map[string][]byte{
		"smove-roundtrip": SmoveRoundTrip(target, home),
		"rout":            Rout(target),
		"firedetector":    FireDetector(home, 80),
		"firetracker":     FireTracker(),
		"blink":           Blink(),
		"spreader":        Spreader(FireDetectorSrc(home, 80)),
		"sentinel":        asm.MustAssemble(FireSentinelSrc(home, 80)),
	}
	for name, code := range programs {
		if len(code) == 0 {
			t.Errorf("%s: empty program", name)
			continue
		}
		if rep, err := vm.Verify(code); err != nil || rep.Instructions == 0 {
			t.Errorf("%s: verify = %d, %v", name, rep.Instructions, err)
		}
	}
}

func TestOneHopOpAllOps(t *testing.T) {
	for _, op := range []string{"rout", "rinp", "rrdp", "smove", "wmove", "sclone", "wclone"} {
		code, err := OneHopOp(op, topology.Loc(2, 1))
		if err != nil {
			t.Errorf("%s: %v", op, err)
			continue
		}
		if _, err := vm.Verify(code); err != nil {
			t.Errorf("%s: invalid code: %v", op, err)
		}
	}
	if _, err := OneHopOp("bogus", topology.Loc(1, 1)); err == nil {
		t.Error("unknown op must fail")
	}
}

func TestAgentsFitInstructionMemory(t *testing.T) {
	// Every canonical agent must fit the 440-byte mote budget (§3.2).
	programs := map[string][]byte{
		"firedetector": FireDetector(topology.Loc(0, 0), 4800),
		"firetracker":  FireTracker(),
		"spreader":     Spreader(FireDetectorSrc(topology.Loc(0, 0), 4800)),
	}
	for name, code := range programs {
		if len(code) > 440 {
			t.Errorf("%s: %d bytes exceeds the 440-byte instruction memory", name, len(code))
		}
	}
}
