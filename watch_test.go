package agilla_test

// Tests for Space.Watch as a subscription on the event stream: it ends
// with its node, follows its node through a move, and keeps each node's
// insertion order under parallel shards.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/program"
)

// drainWatch collects a watch channel until it closes, failing the test
// if it stays open.
func drainWatch(t *testing.T, ch <-chan agilla.Tuple) []agilla.Tuple {
	t.Helper()
	var got []agilla.Tuple
	deadline := time.After(5 * time.Second)
	for {
		select {
		case tu, open := <-ch:
			if !open {
				return got
			}
			got = append(got, tu)
		case <-deadline:
			t.Fatalf("watch still open after %d tuples", len(got))
		}
	}
}

// TestWatchEndsWithItsNode: a watch that ended with its node leaves
// nothing behind in the network's subscription table, so a long-running
// host that re-watches a churning mote holds only its live watches, not
// every watch it ever made until Network.Close.
func TestWatchEndsWithItsNode(t *testing.T) {
	nw := reliableGrid(t, 3, 1)
	defer nw.Close()
	victim := agilla.Loc(2, 1)
	start := agilla.SubscriptionsForTest(nw)
	for i := 0; i < 100; i++ {
		w := nw.Space(victim).Watch(agilla.Tmpl(agilla.Str("png")))
		nw.Script(agilla.KillAt(nw.Now(), victim))
		if err := nw.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		drainWatch(t, w)
		nw.Script(agilla.ReviveAt(nw.Now(), victim))
		if err := nw.Run(3 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if got := agilla.SubscriptionsForTest(nw); got != start {
		t.Fatalf("subscription table holds %d after 100 watch/kill/revive cycles, want %d", got, start)
	}
}

// TestWatchFollowsAMove: a watch follows its mote to the new address —
// it sees insertions there, including the refreshed location tuple, and
// none at the vacated address once another mote has moved in — and ends
// with the mote's death at the new address, after draining what it
// queued.
func TestWatchFollowsAMove(t *testing.T) {
	nw := reliableGrid(t, 3, 1)
	defer nw.Close()
	from, to := agilla.Loc(2, 1), agilla.Loc(2, 2)
	png := nw.Space(from).Watch(agilla.Tmpl(agilla.Str("png"), agilla.TypeV(1)))
	loc := nw.Space(from).Watch(agilla.Tmpl(agilla.Str("loc"), agilla.TypeV(3)))

	nw.Script(agilla.MoveAt(nw.Now(), from, to))
	if err := nw.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := nw.Space(to).Out(agilla.T(agilla.Str("png"), agilla.Int(1))); err != nil {
		t.Fatal(err)
	}
	// Another mote takes the vacated address; its insertions are not the
	// watched mote's.
	nw.Script(agilla.MoveAt(nw.Now(), agilla.Loc(3, 1), from))
	if err := nw.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := nw.Space(from).Out(agilla.T(agilla.Str("png"), agilla.Int(2))); err != nil {
		t.Fatal(err)
	}
	if err := nw.Space(to).Out(agilla.T(agilla.Str("png"), agilla.Int(3))); err != nil {
		t.Fatal(err)
	}
	nw.Script(agilla.KillAt(nw.Now(), to))
	if err := nw.Run(time.Second); err != nil {
		t.Fatal(err)
	}

	got := drainWatch(t, png)
	if len(got) != 2 || got[0].Fields[1].A != 1 || got[1].Fields[1].A != 3 {
		t.Fatalf("watch delivered %v, want <png,1> then <png,3>", got)
	}
	refreshed := drainWatch(t, loc)
	if len(refreshed) != 1 || refreshed[0].Fields[1].Loc() != to {
		t.Fatalf("location watch delivered %v, want the refreshed <loc,%v>", refreshed, to)
	}
}

// TestWatchUnderWorkers: with two shards publishing concurrently, each
// watch yields its own mote's matches in that mote's insertion order.
func TestWatchUnderWorkers(t *testing.T) {
	// The grid's two ends lie in different strips of a two-shard
	// partition, so their agents run on different goroutines.
	nw := reliableGrid(t, 6, 2, agilla.WithWorkers(2))
	left, right := agilla.Loc(1, 1), agilla.Loc(6, 2)
	tmpl := agilla.Tmpl(agilla.Str("png"), agilla.TypeV(1))
	watches := map[agilla.Location]<-chan agilla.Tuple{
		left:  nw.Space(left).Watch(tmpl),
		right: nw.Space(right).Watch(tmpl),
	}
	// Two agents per mote, each writing eight tuples half a second apart,
	// so both motes insert through the same stretch of virtual time.
	var src strings.Builder
	for k := 1; k <= 8; k++ {
		fmt.Fprintf(&src, "pushn png\npushc %d\npushc 2\nout\npushc 4\nsleep\n", k)
	}
	src.WriteString("halt")
	p := program.MustParse(src.String())
	for _, loc := range []agilla.Location{left, right} {
		if _, err := nw.Launch(p, loc); err != nil {
			t.Fatal(err)
		}
		if _, err := nw.Launch(p, loc); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	nw.Close()
	for _, loc := range []agilla.Location{left, right} {
		var want []agilla.Tuple
		for _, tu := range nw.Space(loc).All() {
			if tmpl.Matches(tu) {
				want = append(want, tu)
			}
		}
		got := drainWatch(t, watches[loc])
		if len(want) != 16 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("watch at %v delivered %v,\nwant the space's order %v", loc, got, want)
		}
	}
}
