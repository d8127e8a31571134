package agilla_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/program"
)

// The agents of TestRetainedTuplesSurviveScratchReuse. Every tuple
// instruction works in its shard's scratch, so each tuple below that
// something keeps past the instruction must have been copied: the
// churners overwrite the scratch on every tick, and race-detector builds
// poison it after every use besides.
const (
	// blocker blocks on in <"blk", VALUE> and announces what woke it.
	retainBlocker = `
		pushn blk
		pusht VALUE
		pushc 2
		in
		pop
		swap
		pop
		pushn gtb
		swap
		pushc 2
		out
		halt`
	// waiter registers two reactions and reports each firing's value.
	retainWaiter = `
		pushn rx
		pusht VALUE
		pushc 2
		pushcl RX
		regrxn
		pushn fx
		pusht VALUE
		pushc 2
		pushcl FX
		regrxn
	WAIT:	wait
		rjump WAIT
	RX:	pop
		swap
		pop
		pushn gtr
		swap
		pushc 2
		out
		jumps
	FX:	pop
		swap
		pop
		pushn gtf
		swap
		pushc 2
		out
		jumps`
	// router routs <"rmt", 55> to (2,1); the test drops its first request,
	// so the retransmission is encoded seconds of scratch churn later.
	retainRouter = `
		pushn rmt
		pushc 55
		pushc 2
		pushloc 2 1
		rout
		halt`
	// oneShots is where the (1,1) churner starts: the tuples a reaction
	// firing, the event stream and the replica store keep. Its out of
	// <"fx", 66> is the first instruction after a sleep, so the tcount
	// right behind it reuses the scratch before the waiter runs.
	retainOneShots = `
		pushn zz
		pushc 7
		pushc 2
		pushn fx
		pushc 66
		pushc 2
		pushc 4
		sleep
		out
		tcount
		pop
		pushn evt
		pushc 33
		pushc 2
		out
		pushn rep
		pushc 44
		pushc 2
		out`
	// churn puts a four-field tuple in and takes it out again every tick.
	retainChurn = `
	LOOP:	pushn zz
		pushc 9
		pushc 9
		pushc 9
		pushc 4
		out
		pushn zz
		pusht VALUE
		pusht VALUE
		pusht VALUE
		pushc 4
		inp
		pop
		pop
		pop
		pop
		pop
		pushc 1
		sleep
		rjump LOOP`
)

// TestRetainedTuplesSurviveScratchReuse covers every place that keeps a
// tuple or template handed over in scratch: a blocked agent's template, a
// queued reaction firing, a registered reaction, a replica store entry,
// an event, a remote operation's request and a RemoteClient reply. Each
// is exercised after the scratch it came from has been reused.
func TestRetainedTuplesSurviveScratchReuse(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			near, far := agilla.Loc(1, 1), agilla.Loc(2, 1)
			nw := reliableGrid(t, 2, 1, agilla.WithWorkers(workers), agilla.WithReplication(agilla.Replication{}))
			events := nw.Events(agilla.OfKind(agilla.EventTupleOut, agilla.EventReactionFired), agilla.OnNode(near))
			d := agilla.DeploymentForTest(nw)
			dropped := false
			d.Medium.Drop = func(f radio.Frame, _ agilla.Location) bool {
				if f.Kind == radio.KindRemoteTS && !dropped {
					dropped = true
					return true
				}
				return false
			}
			var agents []*agilla.Agent
			for _, a := range []struct {
				src string
				at  agilla.Location
			}{
				{retainBlocker, near},
				{retainWaiter, near},
				{retainRouter, near},
				{retainOneShots + retainChurn, near},
				{retainChurn, far},
			} {
				ag, err := nw.Launch(program.MustParse(a.src), a.at)
				if err != nil {
					t.Fatal(err)
				}
				agents = append(agents, ag)
			}
			settled := func() bool {
				blocker, _ := d.Node(near).AgentInfo(agents[0].ID())
				waiter, _ := d.Node(near).AgentInfo(agents[1].ID())
				return blocker == agilla.AgentBlocked && waiter == agilla.AgentWaiting
			}
			for !settled() {
				if nw.Now() > time.Minute {
					t.Fatal("the blocker and the waiter never settled")
				}
				if err := nw.Run(100 * time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
			// A second of churn reuses the scratch the templates came from.
			if err := nw.Run(time.Second); err != nil {
				t.Fatal(err)
			}
			// The host inserts these itself, so only the blocked agent's
			// and the registry's own copies of their templates can match.
			// An aliased blocking template would still let the blocker
			// retry at some agent's later out (the alias then reads that
			// very tuple), so the insertion itself must wake it.
			if err := nw.Space(near).Out(agilla.T(agilla.Str("blk"), agilla.Int(11))); err != nil {
				t.Fatal(err)
			}
			if st, _ := d.Node(near).AgentInfo(agents[0].ID()); st != agilla.AgentReady {
				t.Errorf("a blocked agent's template: inserting <\"blk\", 11> left the blocker %v, want %v", st, agilla.AgentReady)
			}
			if err := nw.Space(near).Out(agilla.T(agilla.Str("rx"), agilla.Int(22))); err != nil {
				t.Fatal(err)
			}
			if err := nw.Run(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if !dropped {
				t.Fatal("the router's first request was never sent")
			}

			for _, c := range []struct {
				retainer string
				at       agilla.Location
				want     agilla.Tuple
			}{
				{"a blocked agent's template", near, agilla.T(agilla.Str("gtb"), agilla.Int(11))},
				{"a registered reaction's template", near, agilla.T(agilla.Str("gtr"), agilla.Int(22))},
				{"a queued reaction firing", near, agilla.T(agilla.Str("gtf"), agilla.Int(66))},
				{"a remote operation's request", far, agilla.T(agilla.Str("rmt"), agilla.Int(55))},
			} {
				if _, ok := nw.Space(c.at).Rdp(agilla.Template(c.want)); !ok {
					t.Errorf("%s: %v never appeared at %v; it holds %v", c.retainer, c.want, c.at, nw.Space(c.at).All())
				}
			}

			rep := agilla.T(agilla.Str("rep"), agilla.Int(44))
			found := false
			for _, e := range d.Node(near).ReplicaLive() {
				found = found || e.Tuple.Equal(rep)
			}
			if !found {
				t.Errorf("a replica store entry: %v is not among %v's live entries %v", rep, near, d.Node(near).ReplicaLive())
			}

			// Two remote reads in a row decode into the base station's
			// shard's scratch; the first result must not change.
			rmt, ok, err := nw.Remote().Rrdp(far, agilla.Tmpl(agilla.Str("rmt"), agilla.TypeV(tuplespace.TypeValue)))
			if err != nil || !ok {
				t.Fatalf("Rrdp: ok=%v err=%v", ok, err)
			}
			if _, ok, err := nw.Remote().Rrdp(far, agilla.Tmpl(agilla.Str("loc"), agilla.TypeV(tuplespace.TypeLocation))); err != nil || !ok {
				t.Fatalf("second Rrdp: ok=%v err=%v", ok, err)
			}
			if want := agilla.T(agilla.Str("rmt"), agilla.Int(55)); !rmt.Equal(want) {
				t.Errorf("a RemoteClient reply: the first Rrdp returned %v, want %v", rmt, want)
			}

			var sawOut, sawFired bool
			for _, e := range drainEvents(nw, events) {
				switch {
				case e.Kind == agilla.EventTupleOut && e.Tuple.Equal(agilla.T(agilla.Str("evt"), agilla.Int(33))):
					sawOut = true
				case e.Kind == agilla.EventReactionFired && e.Tuple.Equal(agilla.T(agilla.Str("fx"), agilla.Int(66))):
					sawFired = true
				}
			}
			if !sawOut || !sawFired {
				t.Errorf("event tuples: tuple-out <\"evt\", 33> seen %v, reaction-fired <\"fx\", 66> seen %v", sawOut, sawFired)
			}
		})
	}
}
