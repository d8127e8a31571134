package agilla_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/agilla-go/agilla"
)

// TestCloseDrainsAndReleasesGoroutines pins the Network.Close contract:
// events published before Close stay deliverable in order, channels close
// once drained, post-Close subscriptions are born closed, and every pump
// goroutine exits once its channel has been drained.
func TestCloseDrainsAndReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	nw, err := agilla.New(
		agilla.WithTopology(agilla.Grid(3, 1)),
		agilla.WithReliableRadio(),
		agilla.WithSeed(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	all := nw.Events()
	tuples := nw.Events(agilla.OfKind(agilla.EventTupleOut))
	watch := nw.Space(agilla.Loc(2, 1)).Watch(agilla.Tmpl(agilla.Str("png")))
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	if err := nw.Space(agilla.Loc(2, 1)).Out(agilla.T(agilla.Str("png"))); err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Close with everything still queued; nothing may be lost.
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nw.Close(); err != nil {
		t.Fatal("Close is not idempotent:", err)
	}

	nAll, nTuples, nWatch := 0, 0, 0
	for range all {
		nAll++
	}
	for e := range tuples {
		if e.Kind != agilla.EventTupleOut {
			t.Fatalf("filtered channel leaked %v", e)
		}
		nTuples++
	}
	for range watch {
		nWatch++
	}
	if nAll == 0 || nTuples == 0 {
		t.Fatalf("queued events lost at Close: all=%d tuples=%d", nAll, nTuples)
	}
	if nWatch != 1 {
		t.Fatalf("watch delivered %d matches, want 1", nWatch)
	}

	// A subscription made after Close is born closed.
	if _, open := <-nw.Events(); open {
		t.Fatal("post-Close subscription delivered an event")
	}
	if _, open := <-nw.Space(agilla.Loc(2, 1)).Watch(agilla.Tmpl(agilla.Str("png"))); open {
		t.Fatal("post-Close watch delivered a tuple")
	}

	// All pump goroutines must exit once their channels are drained.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWatchClosesOnNodeDeath pins the Watch termination contract: a watch
// on a node that dies delivers its already-queued matches and then its
// channel closes — it does not dangle open until Network.Close — while
// watches on surviving nodes keep delivering. Before this contract a
// dashboard ranging over a crashed mote's watch hung forever (or until
// teardown), with the pump goroutine pinned alongside it.
func TestWatchClosesOnNodeDeath(t *testing.T) {
	before := runtime.NumGoroutine()

	nw, err := agilla.New(
		agilla.WithTopology(agilla.Grid(3, 1)),
		agilla.WithReliableRadio(),
		agilla.WithSeed(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	victim, survivor := agilla.Loc(2, 1), agilla.Loc(3, 1)
	doomed := nw.Space(victim).Watch(agilla.Tmpl(agilla.Str("png")))
	alive := nw.Space(survivor).Watch(agilla.Tmpl(agilla.Str("png")))
	if err := nw.WarmUp(); err != nil {
		t.Fatal(err)
	}
	if err := nw.Space(victim).Out(agilla.T(agilla.Str("png"))); err != nil {
		t.Fatal(err)
	}
	// The kill is scheduled on the virtual clock; advance past it.
	nw.Script(agilla.KillAt(nw.Now(), victim))
	if err := nw.Run(time.Second); err != nil {
		t.Fatal(err)
	}

	// The doomed watch must yield its queued match and then close, without
	// any Network.Close: ranging terminates.
	got := 0
	for range doomed {
		got++
	}
	if got != 1 {
		t.Fatalf("doomed watch delivered %d matches, want 1", got)
	}

	// A revival boots a fresh space; the old watch stays closed and a
	// re-Watch observes the new incarnation.
	nw.Script(agilla.ReviveAt(nw.Now(), victim))
	if err := nw.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	rewatch := nw.Space(victim).Watch(agilla.Tmpl(agilla.Str("png")))
	if err := nw.Space(victim).Out(agilla.T(agilla.Str("png"))); err != nil {
		t.Fatal(err)
	}
	if tu := <-rewatch; len(tu.Fields) == 0 {
		t.Fatal("re-watch after revival delivered nothing")
	}

	// The survivor's watch is untouched by its neighbor's death.
	if err := nw.Space(survivor).Out(agilla.T(agilla.Str("png"))); err != nil {
		t.Fatal(err)
	}
	if tu := <-alive; len(tu.Fields) == 0 {
		t.Fatal("survivor watch delivered nothing")
	}

	// Close remains idempotent with the death-path teardown: the doomed
	// watch was already closed once.
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	for range rewatch {
	}
	for range alive {
	}

	// No pump goroutine may outlive its drained channel — the leak this
	// contract exists to prevent.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDiskConnectivityCheck is the regression for disconnected
// random-disk deployments: they must fail fast with a typed error, and
// probing seeds with Connected must find one New accepts — never
// silently stall a scenario.
func TestDiskConnectivityCheck(t *testing.T) {
	// A marginal density (roughly half of all placements partition even
	// after the sampler's internal redraws): some seed will partition it.
	// Find one deterministically.
	sparse := agilla.RandomDisk(12, 8, 2.0)
	badSeed := int64(-1)
	for s := int64(0); s < 200; s++ {
		ok, err := sparse.Connected(s)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			badSeed = s
			break
		}
	}
	if badSeed < 0 {
		t.Skip("no partitioned seed in probe range; density too forgiving")
	}

	// New must refuse it with the typed error, not deploy a stalling net.
	_, err := agilla.New(agilla.WithTopology(sparse), agilla.WithSeed(badSeed))
	if !errors.Is(err, agilla.ErrDisconnected) {
		t.Fatalf("New on partitioned disk: %v, want ErrDisconnected", err)
	}

	// A scenario over it fails fast for the same reason.
	s := &agilla.Scenario{Name: "partitioned", Options: []agilla.Option{agilla.WithTopology(sparse)}, Duration: time.Second}
	if _, err := s.Run(badSeed); !errors.Is(err, agilla.ErrDisconnected) {
		t.Fatalf("Scenario.Run: %v, want ErrDisconnected", err)
	}

	// Probing the following seeds finds a connected placement nearby...
	good := badSeed + 1
	for ; good < badSeed+256; good++ {
		if connected, err := sparse.Connected(good); err != nil {
			t.Fatal(err)
		} else if connected {
			break
		}
	}
	if good == badSeed+256 {
		t.Fatal("no connected seed in 255 tries")
	}
	// ...and that placement actually deploys.
	if _, err := agilla.New(agilla.WithTopology(sparse), agilla.WithSeed(good)); err != nil {
		t.Fatalf("New on found seed: %v", err)
	}

	// Fixed topologies report connected, and the zero Topology (default
	// grid) works too.
	if connected, err := agilla.Grid(4, 4).Connected(0); err != nil || !connected {
		t.Fatalf("grid Connected = %v, %v", connected, err)
	}
	var zero agilla.Topology
	if connected, err := zero.Connected(0); err != nil || !connected {
		t.Fatalf("zero topology Connected = %v, %v", connected, err)
	}
	// Invalid parameters still surface as real errors.
	if _, err := agilla.RandomDisk(0, 1, -1).Connected(0); err == nil {
		t.Fatal("invalid disk parameters must error")
	}
}
