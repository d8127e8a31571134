package agilla_test

// Tests for the typed event stream: subscription, filtering, variant
// payloads, Close semantics, and the readable String forms of the public
// enums.

import (
	"testing"
	"time"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/program"
)

// drainEvents closes the network's subscriptions and collects everything
// already queued on ch.
func drainEvents(nw *agilla.Network, ch <-chan agilla.Event) []agilla.Event {
	nw.Close()
	var out []agilla.Event
	for e := range ch {
		out = append(out, e)
	}
	return out
}

func TestEventsObserveAgentLifecycle(t *testing.T) {
	nw := reliableGrid(t, 3, 1)
	all := nw.Events()

	ag, err := nw.Launch(program.MustParse(marker), agilla.Loc(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if done, err := ag.WaitDone(time.Minute); err != nil || !done {
		t.Fatalf("marker agent: done=%v err=%v", done, err)
	}
	events := drainEvents(nw, all)

	var arrived, started, migDone, halted, tupleOut int
	var lastWhen time.Duration
	for _, e := range events {
		if e.When() < lastWhen {
			t.Fatalf("events out of order: %v after %v", e.When(), lastWhen)
		}
		lastWhen = e.When()
		switch ev := e.(type) {
		case agilla.AgentArrived:
			arrived++
			if ev.AgentID != ag.ID() || ev.Mig != agilla.MigInject {
				t.Errorf("arrival = %+v", ev)
			}
			if ev.Node != agilla.Loc(3, 1) {
				t.Errorf("arrived at %v, want (3,1)", ev.Node)
			}
		case agilla.MigrationStarted:
			started++
		case agilla.MigrationDone:
			migDone++
			if !ev.OK {
				t.Errorf("hop failed on a reliable radio: %v", ev)
			}
		case agilla.AgentHalted:
			halted++
			if ev.AgentID != ag.ID() || ev.Node != agilla.Loc(3, 1) {
				t.Errorf("halt = %+v", ev)
			}
		case agilla.TupleOut:
			tupleOut++
		}
	}
	// Injection to (3,1) is 3 hops: base->gateway, then two relays. The
	// agent arrives (and halts) only at the final destination.
	if arrived != 1 || halted != 1 {
		t.Errorf("arrived=%d halted=%d, want 1 each", arrived, halted)
	}
	// MigrationStarted fires when the injecting node opens the transfer;
	// MigrationDone fires per concluded hop (base->gateway plus two
	// relays).
	if started < 1 || migDone < 3 {
		t.Errorf("started=%d done=%d hop events, want >= 1 and >= 3", started, migDone)
	}
	if tupleOut == 0 {
		t.Error("no tuple-out events (the marker stamps its destination)")
	}
}

func TestEventFilters(t *testing.T) {
	nw := reliableGrid(t, 2, 1)
	near, far := agilla.Loc(1, 1), agilla.Loc(2, 1)

	onlyFar := nw.Events(agilla.OfKind(agilla.EventTupleOut), agilla.OnNode(far))
	if err := nw.Space(near).Out(agilla.T(agilla.Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := nw.Space(far).Out(agilla.T(agilla.Int(2))); err != nil {
		t.Fatal(err)
	}
	events := drainEvents(nw, onlyFar)
	if len(events) != 1 {
		t.Fatalf("filtered stream delivered %d events, want 1: %v", len(events), events)
	}
	out := events[0].(agilla.TupleOut)
	if out.Node != far || out.Tuple.Fields[0].A != 2 {
		t.Fatalf("wrong event passed the filter: %v", out)
	}
}

func TestEventFilterByAgent(t *testing.T) {
	nw := reliableGrid(t, 2, 1)
	first, err := nw.Launch(program.MustParse("halt"), agilla.Loc(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	second, err := nw.Launch(program.MustParse("halt"), agilla.Loc(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	halts := nw.Events(agilla.OfKind(agilla.EventAgentHalted), agilla.OfAgent(second.ID()))
	for _, ag := range []*agilla.Agent{first, second} {
		if done, err := ag.WaitDone(time.Minute); err != nil || !done {
			t.Fatalf("agent %d: done=%v err=%v", ag.ID(), done, err)
		}
	}
	events := drainEvents(nw, halts)
	if len(events) != 1 {
		t.Fatalf("agent filter passed %d events, want 1: %v", len(events), events)
	}
	if id, ok := agilla.OfAgent(second.ID()), true; !ok || !id(events[0]) {
		t.Fatalf("event %v does not concern agent %d", events[0], second.ID())
	}
}

func TestReactionFiredEvent(t *testing.T) {
	nw := reliableGrid(t, 2, 1)
	mote := agilla.Loc(2, 1)

	// A tracker-style agent: register a reaction on <"fir", location>,
	// wait, and halt when it fires.
	ag, err := nw.Launch(program.MustParse(`
		     pushn fir
		     pusht LOCATION
		     pushc 2
		     pushcl FIRE
		     regrxn
		     wait
		FIRE halt
	`), mote)
	if err != nil {
		t.Fatal(err)
	}
	settled, err := ag.Wait(func(a *agilla.Agent) bool { return a.State() == agilla.AgentWaiting }, time.Minute)
	if err != nil || !settled {
		t.Fatalf("tracker never reached wait: %v %v", settled, err)
	}

	fired := nw.Events(agilla.OfKind(agilla.EventReactionFired))
	if err := nw.Space(mote).Out(agilla.T(agilla.Str("fir"), agilla.LocV(agilla.Loc(4, 4)))); err != nil {
		t.Fatal(err)
	}
	if done, err := ag.WaitDone(time.Minute); err != nil || !done {
		t.Fatalf("reaction did not wake the agent: %v %v", done, err)
	}
	events := drainEvents(nw, fired)
	if len(events) != 1 {
		t.Fatalf("reaction events = %d, want 1: %v", len(events), events)
	}
	rf := events[0].(agilla.ReactionFired)
	if rf.AgentID != ag.ID() || rf.Node != mote || rf.Tuple.Fields[0].S != "fir" {
		t.Fatalf("reaction event = %+v", rf)
	}
}

func TestEventsAfterCloseAreDropped(t *testing.T) {
	nw := reliableGrid(t, 2, 1)
	ch := nw.Events()
	nw.Close()
	// Subscribing on a closed network yields a closed channel.
	if _, open := <-nw.Events(); open {
		t.Error("post-Close subscription delivered an event")
	}
	// The network stays usable; events after Close go nowhere.
	if err := nw.Space(agilla.Loc(1, 1)).Out(agilla.T(agilla.Int(1))); err != nil {
		t.Fatal(err)
	}
	if e, open := <-ch; open {
		t.Errorf("event %v delivered after Close", e)
	}
}

// TestEnumStrings pins the readable forms used by event logs and test
// failures.
func TestEnumStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{agilla.MigInject.String(), "inject"},
		{agilla.MigStrongMove.String(), "smove"},
		{agilla.MigWeakClone.String(), "wclone"},
		{agilla.RemoteOut.String(), "rout"},
		{agilla.RemoteInp.String(), "rinp"},
		{agilla.RemoteRdp.String(), "rrdp"},
		{agilla.EventReactionFired.String(), "reaction-fired"},
		{agilla.EventReplicaSynced.String(), "replica-synced"},
		{agilla.EventTupleRecovered.String(), "tuple-recovered"},
		{agilla.AgentReady.String(), "ready"},
		{agilla.AgentWaiting.String(), "waiting"},
		{agilla.AgentDead.String(), "dead"},
		{agilla.SensorTemperature.String(), "temperature"},
		{agilla.SensorSmoke.String(), "smoke"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

// TestEventStringsReadable spot-checks the variant String forms.
func TestEventStringsReadable(t *testing.T) {
	e := agilla.MigrationDone{
		At: time.Second, Node: agilla.Loc(1, 1), AgentID: 257,
		Mig: agilla.MigStrongMove, Dest: agilla.Loc(2, 1), OK: true,
	}
	if got := e.String(); got != "agent 257 smove (1,1) -> (2,1) ok" {
		t.Errorf("MigrationDone.String() = %q", got)
	}
	h := agilla.AgentHalted{At: time.Second, Node: agilla.Loc(2, 1), AgentID: 257}
	if got := h.String(); got != "agent 257 halted at (2,1)" {
		t.Errorf("AgentHalted.String() = %q", got)
	}
	rs := agilla.ReplicaSynced{
		At: time.Second, Node: agilla.Loc(2, 1), Peer: agilla.Loc(1, 1), Added: 3, Removed: 1,
	}
	if got := rs.String(); got != "node (2,1) synced replica from (1,1) (+3 -1)" {
		t.Errorf("ReplicaSynced.String() = %q", got)
	}
	tr := agilla.TupleRecovered{At: time.Second, Node: agilla.Loc(2, 1), Tuple: agilla.T(agilla.Str("sv"))}
	if got := tr.String(); got != `node (2,1) recovered tuple <"sv">` {
		t.Errorf("TupleRecovered.String() = %q", got)
	}
}
