package agilla_test

// Tests for the per-node tuple space handles: direct probes and Watch
// subscriptions.

import (
	"testing"
	"time"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/program"
)

func TestSpaceHandleBasics(t *testing.T) {
	nw := reliableGrid(t, 2, 1)
	sp := nw.Space(agilla.Loc(2, 1))
	if nw.Node(sp.Loc()) == nil || sp.Loc() != agilla.Loc(2, 1) {
		t.Fatalf("handle wrong: loc=%v", sp.Loc())
	}

	if err := sp.Out(agilla.T(agilla.Int(5), agilla.Str("ab"))); err != nil {
		t.Fatal(err)
	}
	if n := sp.Count(agilla.Tmpl(agilla.TypeV(1), agilla.TypeV(2))); n != 1 {
		t.Errorf("Count = %d", n)
	}
	got, ok := sp.Rdp(agilla.Tmpl(agilla.Int(5), agilla.Str("ab")))
	if !ok || got.Fields[0].A != 5 {
		t.Errorf("Rdp = %v, %v", got, ok)
	}
	if got, ok := sp.Inp(agilla.Tmpl(agilla.Int(5), agilla.Str("ab"))); !ok || got.Fields[1].Name() != "ab" {
		t.Errorf("Inp = %v, %v", got, ok)
	}
	if _, ok := sp.Rdp(agilla.Tmpl(agilla.Int(5), agilla.Str("ab"))); ok {
		t.Error("tuple should be gone after Inp")
	}
	// All returns the context tuples too; the first is <"loc",(2,1)>.
	all := sp.All()
	if len(all) == 0 || all[0].Fields[0].Name() != "loc" {
		t.Errorf("All = %v", all)
	}
}

func TestSpaceHandleMissingNode(t *testing.T) {
	nw := reliableGrid(t, 2, 1)
	sp := nw.Space(agilla.Loc(9, 9))
	if nw.Node(sp.Loc()) != nil {
		t.Fatal("no node lives at (9,9)")
	}
	if err := sp.Out(agilla.T(agilla.Int(1))); err == nil {
		t.Error("Out into the void must fail")
	}
	if _, ok := sp.Rdp(agilla.Tmpl(agilla.Int(1))); ok {
		t.Error("Rdp on a missing node cannot match")
	}
	if sp.Count(agilla.Tmpl(agilla.TypeV(1))) != 0 || sp.All() != nil {
		t.Error("missing node must read as empty")
	}
	// Watch on a missing node closes immediately instead of hanging.
	select {
	case _, open := <-sp.Watch(agilla.Tmpl(agilla.TypeV(1))):
		if open {
			t.Error("missing-node watch delivered a tuple")
		}
	case <-time.After(5 * time.Second):
		t.Error("missing-node watch never closed")
	}
}

func TestSpaceWatchDeliversMatches(t *testing.T) {
	nw := reliableGrid(t, 2, 1)
	sp := nw.Space(agilla.Loc(2, 1))

	hits := sp.Watch(visited)                          // <"vst", any location>
	misses := sp.Watch(agilla.Tmpl(agilla.Str("zzz"))) // matches nothing

	// The agent's out at (2,1) is a real insertion and must be seen;
	// host-side insertions count too.
	ag, err := nw.Launch(program.MustParse(marker), agilla.Loc(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if done, err := ag.WaitDone(time.Minute); err != nil || !done {
		t.Fatalf("marker agent: done=%v err=%v", done, err)
	}
	if err := sp.Out(agilla.T(agilla.Str("vst"), agilla.LocV(agilla.Loc(0, 0)))); err != nil {
		t.Fatal(err)
	}
	nw.Close()

	var got []agilla.Tuple
	for tup := range hits {
		got = append(got, tup)
	}
	if len(got) != 2 {
		t.Fatalf("watch delivered %d tuples, want 2: %v", len(got), got)
	}
	if got[0].Fields[1].Loc() != agilla.Loc(2, 1) {
		t.Errorf("first match = %v, want the agent's stamp at (2,1)", got[0])
	}
	if got[1].Fields[1].Loc() != agilla.Loc(0, 0) {
		t.Errorf("second match = %v, want the host's stamp", got[1])
	}
	if tup, open := <-misses; open {
		t.Errorf("non-matching watch delivered %v", tup)
	}
}

func TestSpaceWatchSeesRemoteInsertions(t *testing.T) {
	// A Watch observes insertions whatever their origin — including a
	// rout arriving over the air, the FIREDETECTOR notification path.
	nw := reliableGrid(t, 2, 1)
	alerts := nw.Space(agilla.Loc(2, 1)).Watch(agilla.Tmpl(agilla.Str("fir"), agilla.TypeV(3)))
	if err := nw.Remote().Rout(agilla.Loc(2, 1),
		agilla.T(agilla.Str("fir"), agilla.LocV(agilla.Loc(4, 4)))); err != nil {
		t.Fatal(err)
	}
	nw.Close()
	tup, open := <-alerts
	if !open {
		t.Fatal("watch closed without delivering the remote insertion")
	}
	if tup.Fields[1].Loc() != agilla.Loc(4, 4) {
		t.Fatalf("alert = %v", tup)
	}
}
