package core

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"github.com/agilla-go/agilla/internal/agents"
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
// virtual second of beacons and wake-ups pass, and measures the live heap.
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
// within the 704-byte size class.
func TestStructSizes(t *testing.T) {
	pins := []struct {
		name      string
		got, most uintptr
	}{
		{"core.Node", unsafe.Sizeof(Node{}), 656},
		{"core.record", unsafe.Sizeof(record{}), 144},
		{"tuplespace.Value", unsafe.Sizeof(tuplespace.Value{}), 8},
		{"vm.Agent", unsafe.Sizeof(vm.Agent{}), 288},
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

// TestLazyTablesStayNil: a mote that has never migrated, served or
// replicated keeps its five protocol session tables unallocated through
// everything that only reads, deletes from or clears them.
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
			if n.out != nil || n.in != nil || n.done != nil || n.remote != nil || n.served != nil {
				t.Fatalf("workers=%d, %s: a session table was allocated: out=%v in=%v done=%v remote=%v served=%v",
					workers, when, n.out != nil, n.in != nil, n.done != nil, n.remote != nil, n.served != nil)
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
