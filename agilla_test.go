package agilla_test

import (
	"testing"
	"time"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/program"
)

func TestQuickstartFlow(t *testing.T) {
	nw, err := agilla.New(agilla.WithTopology(agilla.Grid(3, 3)), agilla.WithReliableRadio(), agilla.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Launch(program.MustParse(`
		pushc 7
		putled
		pushn hi
		loc
		pushc 2
		out
		halt
	`), agilla.Loc(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, ok := nw.Space(agilla.Loc(2, 2)).Rdp(agilla.Tmpl(agilla.Str("hi"), agilla.TypeV(3)))
	if !ok {
		t.Fatalf("greeting tuple missing; space: %v", nw.Space(agilla.Loc(2, 2)).All())
	}
	if got.Fields[1].Loc() != agilla.Loc(2, 2) {
		t.Errorf("wrong location in tuple: %v", got)
	}
	if nw.Node(agilla.Loc(2, 2)).LED() != 7 {
		t.Error("LED not set")
	}
}

func TestInjectBadProgram(t *testing.T) {
	nw, err := agilla.New(agilla.WithTopology(agilla.Grid(2, 1)), agilla.WithReliableRadio())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := program.Parse("frobnicate"); err == nil {
		t.Error("bad source must fail to parse")
	}
	if _, err := nw.Launch(program.MustParse("halt"), agilla.Loc(9, 9)); err == nil {
		t.Error("unknown destination must fail")
	}
}

func TestTupleHelpers(t *testing.T) {
	nw, err := agilla.New(agilla.WithTopology(agilla.Grid(2, 1)), agilla.WithReliableRadio())
	if err != nil {
		t.Fatal(err)
	}
	loc := agilla.Loc(1, 1)
	if err := nw.Space(loc).Out(agilla.T(agilla.Int(5), agilla.Str("ab"))); err != nil {
		t.Fatal(err)
	}
	if n := nw.Space(loc).Count(agilla.Tmpl(agilla.TypeV(1), agilla.TypeV(2))); n != 1 {
		t.Errorf("Count = %d", n)
	}
	got, ok := nw.Space(loc).Inp(agilla.Tmpl(agilla.Int(5), agilla.Str("ab")))
	if !ok || got.Fields[0].A != 5 {
		t.Errorf("Take = %v,%v", got, ok)
	}
	if _, ok := nw.Space(loc).Rdp(agilla.Tmpl(agilla.Int(5), agilla.Str("ab"))); ok {
		t.Error("tuple should be gone after Take")
	}
}

func TestRemoteRead(t *testing.T) {
	nw, err := agilla.New(agilla.WithTopology(agilla.Grid(3, 1)), agilla.WithReliableRadio(), agilla.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	if err := nw.Space(agilla.Loc(3, 1)).Out(agilla.T(agilla.Int(77))); err != nil {
		t.Fatal(err)
	}
	tup, ok, err := nw.Remote().Rrdp(agilla.Loc(3, 1), agilla.Tmpl(agilla.Int(77)))
	if err != nil || !ok {
		t.Fatalf("Rrdp = %v, %v, %v", tup, ok, err)
	}
}

func TestFireEnvironment(t *testing.T) {
	fire := agilla.NewFire(time.Minute, 3, 3)
	nw, err := agilla.New(agilla.WithTopology(agilla.Grid(3, 3)), agilla.WithReliableRadio(), agilla.WithField(fire), agilla.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	fire.Ignite(agilla.Loc(2, 2), nw.Now())

	// An agent sensing at the burning node reads >200.
	if _, err := nw.Launch(program.MustParse(`
		pushc TEMPERATURE
		sense
		pushc 1
		out
		halt
	`), agilla.Loc(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, ok := nw.Space(agilla.Loc(2, 2)).Rdp(agilla.Tmpl(agilla.TypeV(agilla.TypeOfSensor(agilla.SensorTemperature))))
	if !ok {
		t.Fatal("reading tuple missing")
	}
	if got.Fields[0].B <= 200 {
		t.Errorf("burning node reads %d, want >200", got.Fields[0].B)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		nw, err := agilla.New(agilla.WithTopology(agilla.Grid(3, 3)), agilla.WithSeed(9))
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.WarmUp(); err != nil {
			t.Fatal(err)
		}
		if _, err := nw.Launch(program.MustParse("pushn hi\nloc\npushc 2\nout\nhalt"), agilla.Loc(3, 3)); err != nil {
			t.Fatal(err)
		}
		if err := nw.Run(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, loc := range nw.Locations() {
			for _, tup := range nw.Space(loc).All() {
				out += loc.String() + tup.String() + ";"
			}
		}
		return out
	}
	if a, b := run(), run(); a != b {
		t.Errorf("two identical seeded runs diverged:\n%s\n%s", a, b)
	}
}

func TestAssembleDisassemble(t *testing.T) {
	p, err := program.Parse("pushc 1\npop\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	text, err := program.Disassemble(p.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(text) == 0 {
		t.Error("empty disassembly")
	}
}
