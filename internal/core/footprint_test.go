package core

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
	"github.com/agilla-go/agilla/internal/wire"
)

// The footprint guard: what one idle mote costs the host. The paper fits
// the whole middleware into 3.59 KB of mote SRAM (MemoryBudget); the
// simulator spent 4,453 B of heap per mote before state became allocated
// on use, held by value and found without hashing (README "Host memory
// per simulated mote"). These pins fail when a map, an eager buffer or a
// by-pointer component grows back.

// TestHostBytesPerMote builds a 50×50 field of sensing agents, lets a
// virtual second of beacons and wake-ups pass, and measures the live
// heap: 1,878 B per mote, of which every mote's radio fan-out and
// acquaintance list are built with it, sized from its topology degree
// (1,754 B when they grew on first use and half the motes had not
// beaconed yet).
func TestHostBytesPerMote(t *testing.T) {
	const g = 50
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := NewDeployment(DeploymentSpec{Layout: topology.GridLayout(g, g), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	code := agents.Monitor(2)
	for _, n := range d.Motes() {
		if _, err := n.CreateAgent(code); err != nil {
			t.Fatal(err)
		}
	}
	d.Start()
	if err := d.Sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perMote := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / (g * g)
	t.Logf("%d B of live heap per mote", perMote)
	if perMote > 2700 {
		t.Errorf("live heap per mote = %d B, want <= 2700 (4453 before the footprint diet)", perMote)
	}
	runtime.KeepAlive(d)
}

// TestStructSizes pins the by-value layouts. Node is one object holding
// the stack, space, registry, instruction manager and run ring; with the
// allocator's 8-byte header for pointerful objects over 512 B it must stay
// within the 640-byte size class. A record and a vm.Agent are pinned at
// their size, so per-agent scratch cannot creep in: a shard's agents
// share one (vm.Host.Scratch).
func TestStructSizes(t *testing.T) {
	pins := []struct {
		name      string
		got, most uintptr
	}{
		{"core.Node", unsafe.Sizeof(Node{}), 624},
		{"core.record", unsafe.Sizeof(record{}), 120},
		{"tuplespace.Value", unsafe.Sizeof(tuplespace.Value{}), 8},
		{"vm.Agent", unsafe.Sizeof(vm.Agent{}), 264},
	}
	for _, p := range pins {
		if p.got > p.most {
			t.Errorf("unsafe.Sizeof(%s) = %d, want <= %d", p.name, p.got, p.most)
		}
	}
}

// TestSleepWakeCycleAllocatesNothing: a hosted agent's sleep → wake →
// sleep cycle re-arms the timer embedded in its record and runs compiled
// closures over the shard's scratch outcome — no event, closure or
// outcome is allocated.
func TestSleepWakeCycleAllocatesNothing(t *testing.T) {
	d, err := NewDeployment(DeploymentSpec{Layout: topology.GridLayout(1, 1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := d.Motes()[0]
	if _, err := n.CreateAgent(agents.Monitor(1)); err != nil { // sleeps one 1/8 s tick
		t.Fatal(err)
	}
	cycle := func() {
		if err := d.Sim.Run(d.Sim.Now() + vm.SleepTick); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	cycle()
	woke := n.Stats().InstrExecuted
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("sleep→wake→sleep allocates %.1f objects per cycle, want 0", avg)
	}
	if got := n.Stats().InstrExecuted - woke; got < 100*5 {
		t.Fatalf("agent executed %d instructions over 101 cycles: it is not cycling", got)
	}
}

// TestTupleOpsAllocateNothing: every tuple instruction runs in the
// shard's scratch. One loop of the agents below does an out, an rdp hit
// and miss, a tcount, an inp hit and miss, a regrxn and deregrxn, an out
// that fires a reaction, and an out that wakes an agent blocked in in;
// none of it allocates once the registry, the reaction queue and the
// blocking template have their storage.
func TestTupleOpsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	d, err := NewDeployment(DeploymentSpec{Layout: topology.GridLayout(1, 1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := d.Motes()[0]
	for _, src := range []string{`
	TOP:	pushn abc
		pushc 5
		pushc 2
		out
		pushn abc
		pusht VALUE
		pushc 2
		rdp
		pop
		pop
		pop
		pushn zzz
		pushc 1
		rdp
		pushn abc
		pusht VALUE
		pushc 2
		tcount
		pop
		pushn abc
		pusht VALUE
		pushc 2
		inp
		pop
		pop
		pop
		pushn zzz
		pushc 1
		inp
		pushn rxn
		pusht VALUE
		pushc 2
		pushcl TOP
		regrxn
		pushn rxn
		pusht VALUE
		pushc 2
		deregrxn
		pushn fir
		pushc 7
		pushc 2
		out
		pushn fir
		pusht VALUE
		pushc 2
		inp
		pop
		pop
		pop
		pushn wak
		pushc 3
		pushc 2
		out
		pushc 1
		sleep
		rjump TOP`, `
	TOP:	pushn wak
		pusht VALUE
		pushc 2
		in
		pop
		pop
		pop
		rjump TOP`, `
		pushn fir
		pusht VALUE
		pushc 2
		pushcl RX
		regrxn
	WAIT:	wait
		rjump WAIT
	RX:	pop
		pop
		pop
		jumps`,
	} {
		if _, err := n.CreateAgent(asm.MustAssemble(src)); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() {
		if err := d.Sim.Run(d.Sim.Now() + vm.SleepTick); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	before := n.Stats()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("a loop of tuple instructions allocates %.1f objects, want 0", avg)
	}
	after := n.Stats()
	// A loop takes a sleep tick plus its instructions' latency, so 101
	// ticks see a few loops fewer, each firing the waiter once.
	if fired := after.ReactionsFired - before.ReactionsFired; fired < 90 {
		t.Errorf("%d reactions fired over 101 sleep ticks: the loop is not cycling", fired)
	}
	if after.AgentsDied != 0 || n.NumAgents() != 3 {
		t.Fatalf("the agents broke: %d died, %d hosted", after.AgentsDied, n.NumAgents())
	}
	for _, name := range []string{"abc", "fir", "wak"} {
		if got := n.Space().Count(tuplespace.Tmpl(tuplespace.Str(name), tuplespace.TypeV(tuplespace.TypeValue))); got != 0 {
			t.Errorf("%d <%q, VALUE> tuples left over: a loop did not run through", got, name)
		}
	}
	if n.Registry().Len() != 1 {
		t.Errorf("%d reactions registered, want the waiter's one", n.Registry().Len())
	}
}

// TestLazyTablesStayNil: a mote that has never migrated, served or
// replicated keeps its protocol session record unallocated through
// everything that only reads, removes or clears sessions.
func TestLazyTablesStayNil(t *testing.T) {
	for _, workers := range []int{1, 2} {
		d, err := NewDeployment(DeploymentSpec{Layout: topology.GridLayout(4, 4), Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WarmUp(); err != nil {
			t.Fatal(err)
		}
		n := d.Node(topology.Loc(2, 2))
		peer := topology.Loc(2, 3)
		assertNil := func(when string) {
			t.Helper()
			if n.ses != nil {
				t.Fatalf("workers=%d, %s: the session record was allocated: %+v", workers, when, *n.ses)
			}
		}
		assertNil("after warm-up")

		if n.KillAgent(999) {
			t.Fatal("KillAgent of an unknown ID reported success")
		}
		// A duplicate ack for a transfer this mote never started, a data
		// message of a transfer it never opened, and a reply to a request
		// it never made.
		ack := wire.AckMsg{AgentID: 7, Seq: 3, Of: wire.MsgCode, Index: 1}.Encode()
		n.ReceiveFrame(radio.Frame{Src: peer, Dst: n.Loc(), Kind: radio.KindMigrateCtl, Payload: ack})
		n.ReceiveFrame(radio.Frame{Src: peer, Dst: n.Loc(), Kind: radio.KindMigrateCtl, Payload: ack})
		cm := wire.CodeMsg{AgentID: 7, Seq: 3, Index: 0}
		n.ReceiveFrame(radio.Frame{Src: peer, Dst: n.Loc(), Kind: radio.KindMigrate, Payload: cm.Encode()})
		reply := wire.Envelope{Src: peer, Dst: n.Loc(), TTL: 4, Kind: uint8(radio.KindRemoteTSR),
			Body: wire.RemoteReply{ReqID: 42, OK: true}.Encode()}
		n.ReceiveFrame(radio.Frame{Src: peer, Dst: n.Loc(), Kind: radio.KindRemoteTSR, Payload: reply.Encode()})
		assertNil("after stray frames")

		// A remote operation on the mote's own space short-circuits.
		n.RemoteOp(wire.OpRrdp, n.Loc(), tuplespace.Tuple{}, tuplespace.Tmpl(tuplespace.Str("loc"), tuplespace.TypeV(tuplespace.TypeLocation)), nil)
		assertNil("after a local remote op")

		d.KillAt(d.Sim.Now()+10*time.Millisecond, n.Loc())
		d.ReviveAt(d.Sim.Now()+20*time.Millisecond, n.Loc())
		if err := d.Sim.Run(d.Sim.Now() + 3*time.Second); err != nil {
			t.Fatal(err)
		}
		if n.Life() != NodeUp || d.WorldStats().Kills != 1 || d.WorldStats().Revives != 1 {
			t.Fatalf("workers=%d: crash/recover did not happen: life=%v world=%+v", workers, n.Life(), d.WorldStats())
		}
		assertNil("after Crash and Recover")
		if got := n.Space().TupleCount(); got == 0 {
			t.Fatalf("workers=%d: recovered mote has no context tuples", workers)
		}
	}
}

// TestFirstBeaconRoundAllocates pins what a fresh field allocates while
// every mote hears its neighbours for the first time: a 12×12 field of
// sensing agents from 1 s to 3 s of virtual time, which spans every
// mote's first beacon (the period is 2 s). A mote's radio fan-out and
// acquaintance list are sized from its topology degree when it is built,
// so the round resolves into room the motes already hold; it allocated
// 527 objects while they grew on first use. Five program sites are
// left, the same in every run of this one-shard field: four kernel due
// lists growing (sim.(*dueList).insert) and the base station's first
// beacon growing its shard's transmit scratch (wire.Beacon.Append). Two
// of the due-list growths are 8-byte slices the runtime packs into a
// tiny block it already holds, so an ordinary allocation profile misses
// them; a profile under -race, which turns that packing off, names all
// five. The pin allows two more for the runtime itself: an interface
// type assertion (WithBase.EnumerateNeighbors asserts its inner
// topology) builds its call site's cache on a random one of its early
// calls, so about one fresh process in thirty allocates a sixth object.
func TestFirstBeaconRoundAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const g, sites, runtimeNoise = 12, 5, 2
	d, err := NewDeployment(DeploymentSpec{Layout: topology.GridLayout(g, g), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	code := agents.Monitor(2)
	for _, n := range d.Motes() {
		if _, err := n.CreateAgent(code); err != nil {
			t.Fatal(err)
		}
	}
	d.Start()
	if err := d.Sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := d.Sim.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > sites+runtimeNoise {
		t.Errorf("the first beacon round of a %d×%d field allocates %d objects, want <= %d (%d program sites, %d for the runtime)", g, g, got, sites+runtimeNoise, sites, runtimeNoise)
	}
	for _, n := range d.Motes() {
		if n.NumNeighbors() < 2 {
			t.Fatalf("mote %v knows %d neighbours at 3 s: the round did not run", n.Loc(), n.NumNeighbors())
		}
	}
}
