package agilla_test

// Tests for the event stream: subscription, filtering, per-kind fields,
// Close semantics, and the readable String forms of events and the public
// enums.

import (
	"errors"
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
		if e.At < lastWhen {
			t.Fatalf("events out of order: %v after %v", e.At, lastWhen)
		}
		lastWhen = e.At
		switch e.Kind {
		case agilla.EventAgentArrived:
			arrived++
			if e.AgentID != ag.ID() || e.Mig != agilla.MigInject {
				t.Errorf("arrival = %+v", e)
			}
			if e.Node != agilla.Loc(3, 1) {
				t.Errorf("arrived at %v, want (3,1)", e.Node)
			}
		case agilla.EventMigrationStarted:
			started++
		case agilla.EventMigrationDone:
			migDone++
			if !e.OK {
				t.Errorf("hop failed on a reliable radio: %v", e)
			}
		case agilla.EventAgentHalted:
			halted++
			if e.AgentID != ag.ID() || e.Node != agilla.Loc(3, 1) {
				t.Errorf("halt = %+v", e)
			}
		case agilla.EventTupleOut:
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
	out := events[0]
	if out.Kind != agilla.EventTupleOut || out.Node != far || out.Tuple.Fields[0].A != 2 {
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
	rf := events[0]
	if rf.Kind != agilla.EventReactionFired || rf.AgentID != ag.ID() || rf.Node != mote || rf.Tuple.Fields[0].Name() != "fir" {
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
// failures, and the predicates of the aliased migration enum.
func TestEnumStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{agilla.MigInject.String(), "inject"},
		{agilla.MigStrongMove.String(), "smove"},
		{agilla.MigWeakMove.String(), "wmove"},
		{agilla.MigStrongClone.String(), "sclone"},
		{agilla.MigWeakClone.String(), "wclone"},
		{agilla.RemoteOut.String(), "rout"},
		{agilla.RemoteInp.String(), "rinp"},
		{agilla.RemoteRdp.String(), "rrdp"},
		{agilla.EventKind(0).String(), "event(0)"},
		{agilla.EventKind(15).String(), "event(15)"},
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
	for _, c := range []struct {
		k             agilla.MigKind
		strong, clone bool
	}{
		{agilla.MigStrongMove, true, false},
		{agilla.MigWeakMove, false, false},
		{agilla.MigStrongClone, true, true},
		{agilla.MigWeakClone, false, true},
		{agilla.MigInject, true, false},
	} {
		if c.k.Strong() != c.strong || c.k.Clone() != c.clone {
			t.Errorf("%v: Strong=%v Clone=%v, want %v %v", c.k, c.k.Strong(), c.k.Clone(), c.strong, c.clone)
		}
	}
}

// TestEventStringsReadable pins the String form (and kind name) of every
// event kind; -watch transcripts and the examples print exactly these.
func TestEventStringsReadable(t *testing.T) {
	n, p := agilla.Loc(2, 1), agilla.Loc(1, 1)
	tup := agilla.T(agilla.Str("sv"), agilla.Int(7))
	cases := []struct {
		e          agilla.Event
		kind, want string
	}{
		{agilla.Event{Kind: agilla.EventAgentArrived, AgentID: 257, Mig: agilla.MigInject, Peer: p},
			"agent-arrived", "agent 257 arrived at (2,1) from (1,1) (inject)"},
		{agilla.Event{Kind: agilla.EventAgentHalted, AgentID: 257},
			"agent-halted", "agent 257 halted at (2,1)"},
		{agilla.Event{Kind: agilla.EventAgentDied, AgentID: 257, Err: errors.New("boom")},
			"agent-died", "agent 257 died at (2,1): boom"},
		{agilla.Event{Kind: agilla.EventAgentDied, AgentID: 257, Err: agilla.ErrNodeDown},
			"agent-died", "agent 257 died at (2,1): core: node is down"},
		{agilla.Event{Kind: agilla.EventMigrationStarted, AgentID: 257, Mig: agilla.MigWeakClone, Peer: p},
			"migration-started", "agent 257 wclone (2,1) -> (1,1)"},
		{agilla.Event{Kind: agilla.EventMigrationDone, AgentID: 257, Mig: agilla.MigStrongMove, Peer: p, OK: true},
			"migration-done", "agent 257 smove (2,1) -> (1,1) ok"},
		{agilla.Event{Kind: agilla.EventMigrationDone, AgentID: 257, Mig: agilla.MigStrongClone, Peer: p},
			"migration-done", "agent 257 sclone (2,1) -> (1,1) failed"},
		{agilla.Event{Kind: agilla.EventRemoteDone, AgentID: 257, Op: agilla.RemoteRdp, Peer: p, OK: true, Elapsed: 55 * time.Millisecond},
			"remote-done", "agent 257 rrdp (2,1) -> (1,1) ok in 55ms"},
		{agilla.Event{Kind: agilla.EventRemoteDone, AgentID: 257, Op: agilla.RemoteOut, Peer: p, Elapsed: 2 * time.Second},
			"remote-done", "agent 257 rout (2,1) -> (1,1) failed in 2s"},
		{agilla.Event{Kind: agilla.EventTupleOut, Tuple: tup},
			"tuple-out", `tuple <"sv", 7> out at (2,1)`},
		{agilla.Event{Kind: agilla.EventReactionFired, AgentID: 257, Tuple: tup},
			"reaction-fired", `reaction of agent 257 fired at (2,1) on <"sv", 7>`},
		{agilla.Event{Kind: agilla.EventNodeDied, Cause: agilla.CauseKilled},
			"node-died", "node (2,1) died (killed)"},
		{agilla.Event{Kind: agilla.EventNodeDied, Cause: agilla.CauseEnergy},
			"node-died", "node (2,1) died (energy)"},
		{agilla.Event{Kind: agilla.EventNodeRecovered},
			"node-recovered", "node (2,1) recovered"},
		{agilla.Event{Kind: agilla.EventNodeMoved, Peer: p},
			"node-moved", "node moved (1,1) -> (2,1)"},
		{agilla.Event{Kind: agilla.EventEnergyExhausted, UsedJ: 0.0200004},
			"energy-exhausted", "node (2,1) exhausted its battery (0.02 J)"},
		{agilla.Event{Kind: agilla.EventReplicaSynced, Peer: p, Added: 3, Removed: 1},
			"replica-synced", "node (2,1) synced replica from (1,1) (+3 -1)"},
		{agilla.Event{Kind: agilla.EventTupleRecovered, Tuple: tup},
			"tuple-recovered", `node (2,1) recovered tuple <"sv", 7>`},
	}
	seen := map[agilla.EventKind]bool{}
	for _, c := range cases {
		c.e.At, c.e.Node = time.Second, n
		seen[c.e.Kind] = true
		if got := c.e.Kind.String(); got != c.kind {
			t.Errorf("kind %d String() = %q, want %q", c.e.Kind, got, c.kind)
		}
		if got := c.e.String(); got != c.want {
			t.Errorf("%v String() = %q, want %q", c.e.Kind, got, c.want)
		}
	}
	if len(seen) != 14 {
		t.Errorf("table covers %d kinds, want all 14", len(seen))
	}
}
