package core

import (
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
)

// figure12Program runs every Figure 12 instruction once in a straight
// line (no sleep, sense, wait, migration or remote op), with the pushes
// and pops that feed and drain them. The tuple it inserts matches what
// the blocking reads ask for, so none of them waits.
const figure12Program = `
	loc
	pop
	aid
	pop
	numnbrs
	pop
	randnbr
	pop
	pushc 0
	getnbr
	pop
	pushrt TEMPERATURE
	pop
	pusht VALUE
	pop
	pushn fir
	pop
	pushcl 1000
	pop
	pushloc 3 3
	pop
	pusht VALUE
	pushc 1
	pushc 0
	regrxn
	pusht VALUE
	pushc 1
	deregrxn
	pushc 9
	pushc 1
	out
	pushc 9
	pushc 1
	rdp
	pop
	pop
	pushc 9
	pushc 1
	rd
	pop
	pop
	pusht VALUE
	pushc 1
	tcount
	pop
	pushc 9
	pushc 1
	in
	pop
	pop
	pushc 9
	pushc 1
	out
	pushc 9
	pushc 1
	inp
	pop
	pop
	halt
`

// TestEngineChargesCostTable pins what Figure 12 reports: a lone agent's
// instruction k executes at its creation time plus the vm cost of the k
// instructions before it, and its halt is reported at the creation time
// plus the cost of everything before the halt, under both execution
// modes.
func TestEngineChargesCostTable(t *testing.T) {
	for _, mode := range []ExecMode{ExecAuto, ExecStep} {
		params := radio.ZeroLoss()
		d, err := NewDeployment(DeploymentSpec{
			Layout: topology.GridLayout(1, 1), Seed: 1, Radio: &params,
			Node: Config{Exec: mode},
		})
		if err != nil {
			t.Fatal(err)
		}
		loc := topology.Loc(1, 1)
		n := d.Node(loc)
		// A neighbor entry for randnbr and getnbr to return.
		n.Net().Acquaintances().Update(topology.Loc(2, 1), 0, 0)

		type step struct {
			op vm.Op
			at time.Duration
		}
		var steps []step
		var haltAt time.Duration
		halts := 0
		d.Trace.InstrExecuted = func(_ topology.Location, _ uint16, op vm.Op) {
			steps = append(steps, step{op, d.NowAt(loc)})
		}
		d.Trace.AgentHalted = func(_ topology.Location, _ uint16) {
			halts++
			haltAt = d.NowAt(loc)
		}
		d.Trace.AgentDied = func(_ topology.Location, _ uint16, err error) {
			t.Errorf("mode %d: agent died: %v", mode, err)
		}

		prog, err := vm.Decode(asm.MustAssemble(figure12Program))
		if err != nil {
			t.Fatal(err)
		}
		created := d.Sim.Now()
		if _, err := n.CreateAgent(prog.Code); err != nil {
			t.Fatal(err)
		}
		if err := d.Sim.Run(created + time.Second); err != nil {
			t.Fatal(err)
		}

		if len(steps) != len(prog.Ins) {
			t.Fatalf("mode %d: %d instructions executed, want %d", mode, len(steps), len(prog.Ins))
		}
		due := created
		for i, s := range steps {
			in := prog.Ins[i]
			if s.op != in.Op {
				t.Fatalf("mode %d: instruction %d is %v, want %v", mode, i, s.op, in.Op)
			}
			if s.at != due {
				t.Errorf("mode %d: instruction %d (%v) at %v, want %v", mode, i, s.op, s.at-created, due-created)
			}
			if s.op == vm.OpHalt && (halts != 1 || haltAt != due) {
				t.Errorf("mode %d: %d halts, last at %v; want one at %v", mode, halts, haltAt-created, due-created)
			}
			due += in.Info.Cost
		}
		if n.Space().Count(tuplespace.Tmpl(tuplespace.Int(9))) != 0 {
			t.Errorf("mode %d: the program left a <9> behind", mode)
		}
	}
}
