package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/wire"
)

func testFrame(seq int) wire.Frame {
	return wire.Frame{
		Kind:    uint8(radio.KindRemoteTS),
		Src:     topology.Loc(1, 1),
		Dst:     topology.Loc(2, 1),
		Payload: []byte{byte(seq >> 8), byte(seq)},
	}
}

func seqOf(f wire.Frame) int { return int(f.Payload[0])<<8 | int(f.Payload[1]) }

func TestOpenSchemes(t *testing.T) {
	for _, addr := range []Addr{"loop:x", "udp:127.0.0.1:0", "tcp:127.0.0.1:0"} {
		tr, err := Open(addr)
		if err != nil {
			t.Fatalf("Open(%q): %v", addr, err)
		}
		if tr == nil {
			t.Fatalf("Open(%q) returned a nil transport", addr)
		}
	}
	for _, addr := range []Addr{"sctp:127.0.0.1:0", "127.0.0.1:0", "", "loopx"} {
		if _, err := Open(addr); err == nil {
			t.Fatalf("Open(%q) must fail: unknown scheme", addr)
		}
	}
}

func TestOpenMalformedAddr(t *testing.T) {
	// The scheme parses, so Open succeeds; the bogus host:port must
	// surface at Listen instead of being deferred to the first Send.
	for _, addr := range []Addr{"udp:not-a-host-port", "tcp:no-port-here"} {
		tr, err := Open(addr)
		if err != nil {
			t.Fatalf("Open(%q): %v", addr, err)
		}
		if err := tr.Listen(); err == nil {
			tr.Close()
			t.Fatalf("Listen on %q must fail: malformed address", addr)
		}
	}
	// Dialing a peer whose address is malformed fails fast too.
	for _, scheme := range []string{"udp", "tcp"} {
		tr, err := Open(Addr(scheme + ":127.0.0.1:0"))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Listen(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Dial(Addr(scheme + ":bogus")); err == nil {
			t.Fatalf("%s Dial of malformed peer must fail", scheme)
		}
		if err := tr.Dial("loop:name"); err == nil {
			t.Fatalf("%s Dial of wrong-scheme peer must fail", scheme)
		}
		tr.Close()
	}
}

func TestDoubleListen(t *testing.T) {
	for _, addr := range []Addr{"loop:twice", "udp:127.0.0.1:0", "tcp:127.0.0.1:0"} {
		tr, err := Open(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Listen(); err != nil {
			t.Fatalf("first Listen on %q: %v", addr, err)
		}
		if err := tr.Listen(); err == nil {
			t.Fatalf("second Listen on %q must fail", addr)
		}
		tr.Close()
	}
}

// Constructors for endpoints that are not yet listening; loopback names
// are made unique per call so tests never collide in the registry.
var loopSeq atomic.Int64

func newLoop() Transport { return NewLoopback(Addr(fmt.Sprintf("loop:t%d", loopSeq.Add(1)))) }
func newUDP() Transport  { return NewUDP("udp:127.0.0.1:0") }
func newTCP() Transport  { return NewTCP("tcp:127.0.0.1:0") }

// schemes lists the three transports for the table-driven tests.
var schemes = []struct {
	name  string
	mk    func() Transport
	ghost Addr // well-formed, but nothing a test ever dials or registers
}{
	{"loop", newLoop, "loop:ghost"},
	{"udp", newUDP, "udp:127.0.0.1:1"},
	{"tcp", newTCP, "tcp:127.0.0.1:1"},
}

// core reaches the shared endpoint inside a transport.
func core(tr Transport) *endpoint {
	switch v := tr.(type) {
	case *Loopback:
		return &v.endpoint
	case *UDP:
		return &v.endpoint
	case *TCP:
		return &v.endpoint
	}
	panic("unknown transport")
}

// listening builds and starts one endpoint, closed with the test.
func listening(t *testing.T, mk func() Transport) Transport {
	t.Helper()
	tr := mk()
	if err := tr.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// eventually polls cond until it holds or five seconds pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// pollUntil is eventually for a receiver that reads only when asked:
// before each check it makes the socket reads that a Recv on an empty
// inbox makes (TCP's poll), without popping the inbox, whose frames the
// tests go on to count.
func pollUntil(t *testing.T, tr Transport, what string, cond func() bool) {
	t.Helper()
	p, _ := tr.(interface{ poll() })
	eventually(t, what, func() bool {
		if p != nil {
			p.poll()
		}
		return cond()
	})
}

// recvDeadline polls tr until a frame arrives or the deadline passes.
func recvDeadline(t *testing.T, tr Transport, d time.Duration) (Addr, wire.Frame) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if from, f, ok := tr.Recv(); ok {
			return from, f
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no frame before deadline")
	return "", wire.Frame{}
}

// sendSeqs sends frames numbered [lo, hi) and flushes.
func sendSeqs(t *testing.T, tr Transport, to Addr, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := tr.Send(to, testFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
}

// TestTransportConformance holds all three transports to the one
// contract the bridge relies on: frames round-trip in order with their
// sender's dialed address attached, counters are kept per peer and agree
// across the wire, a full inbox evicts oldest-first and says so in
// Overrun, and a closed endpoint neither sends nor yields frames. (UDP
// promises no ordering in general; one sender over the loopback
// interface keeps it, and the assertions below lean on that.)
func TestTransportConformance(t *testing.T) {
	for _, sc := range schemes {
		t.Run(sc.name, func(t *testing.T) {
			a, b, c := listening(t, sc.mk), listening(t, sc.mk), listening(t, sc.mk)
			addrA, addrB, addrC := a.LocalAddr(), b.LocalAddr(), c.LocalAddr()
			if strings.HasSuffix(string(addrA), ":0") || strings.HasSuffix(string(addrB), ":0") {
				t.Fatalf("LocalAddr did not resolve the kernel port: %q %q", addrA, addrB)
			}
			for _, d := range []struct {
				tr Transport
				to Addr
			}{{a, addrB}, {b, addrA}, {c, addrB}, {a, addrB}} { // the repeat: Dial is idempotent
				if err := d.tr.Dial(d.to); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Dial("sctp:127.0.0.1:9"); err == nil {
				t.Fatal("dialing a foreign scheme must fail")
			}

			// Round trip, in order, attributed to the dialed address (for
			// TCP that is the hello's doing: the source port is ephemeral).
			const frames = 20
			sendSeqs(t, a, addrB, 0, frames)
			for i := 0; i < frames; i++ {
				from, f := recvDeadline(t, b, 5*time.Second)
				if from != addrA {
					t.Fatalf("frame %d attributed to %q, want %q", i, from, addrA)
				}
				if seqOf(f) != i {
					t.Fatalf("frame order broken: got seq %d at slot %d", seqOf(f), i)
				}
			}
			if _, _, ok := b.Recv(); ok {
				t.Fatal("empty inbox must report ok=false")
			}
			sendSeqs(t, b, addrA, 7, 8)
			if _, f := recvDeadline(t, a, 5*time.Second); seqOf(f) != 7 {
				t.Fatalf("reverse frame seq = %d, want 7", seqOf(f))
			}

			// Counters are per peer and agree end to end: a second sender
			// lands in its own cell, and what one side wrote the other read.
			sendSeqs(t, c, addrB, 0, 3)
			pollUntil(t, b, "c's frames at b", func() bool { return b.Stats()[addrC].Recv == 3 })
			pollUntil(t, b, "a's writes accounted", func() bool {
				st := a.Stats()[addrB]
				return st.Batches > 0 && st.SentBytes == b.Stats()[addrA].RecvBytes
			})
			if st := a.Stats()[addrB]; st.Sent != frames || st.SentBytes == 0 {
				t.Fatalf("sender stats = %+v, want Sent=%d and bytes counted", st, frames)
			}
			if st := b.Stats()[addrA]; st.Recv != frames {
				t.Fatalf("receiver stats for a = %+v, want Recv=%d", st, frames)
			}
			for i := 0; i < 3; i++ {
				if from, _ := recvDeadline(t, b, 5*time.Second); from != addrC {
					t.Fatalf("c's frame attributed to %q, want %q", from, addrC)
				}
			}
			if err := a.Send(sc.ghost, testFrame(0)); err == nil {
				t.Fatal("send to a peer that was never dialed or registered must fail")
			}
			if err := a.Send(addrB, wire.Frame{Payload: make([]byte, wire.MaxFramePayload+1)}); !errors.Is(err, wire.ErrBadMessage) {
				t.Fatalf("oversized payload: err = %v, want ErrBadMessage", err)
			}

			// Drop-oldest: overfill b's inbox without draining. The oldest
			// frames go, the newest inboxCap stay in order, and the loss is
			// charged to the peer whose frames were evicted.
			const extra = 10
			sendSeqs(t, a, addrB, 0, inboxCap+extra)
			pollUntil(t, b, "the flood at b", func() bool { return b.Stats()[addrA].Recv == frames+inboxCap+extra })
			if st := b.Stats(); st[addrA].Overrun != extra || st[addrC].Overrun != 0 {
				t.Fatalf("Overrun = %d for a, %d for c; want %d, 0", st[addrA].Overrun, st[addrC].Overrun, extra)
			}
			for i := 0; i < inboxCap; i++ {
				_, f, ok := b.Recv()
				if !ok {
					t.Fatalf("inbox held %d frames, want cap %d", i, inboxCap)
				}
				if seqOf(f) != extra+i {
					t.Fatalf("slot %d holds seq %d, want %d (drop-oldest)", i, seqOf(f), extra+i)
				}
			}
			if _, _, ok := b.Recv(); ok {
				t.Fatalf("inbox held more than its cap of %d", inboxCap)
			}

			// Close drops what is queued and refuses further traffic; a
			// second Close is harmless.
			sendSeqs(t, a, addrB, 0, 2)
			pollUntil(t, b, "frames queued at b", func() bool { return b.Stats()[addrA].Recv == frames+inboxCap+extra+2 })
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := b.Recv(); ok {
				t.Fatal("Recv on a closed endpoint must report ok=false")
			}
			if err := b.Send(addrA, testFrame(0)); err == nil {
				t.Fatal("Send on a closed endpoint must fail")
			}
			if err := b.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}

// TestLoopbackRegistry covers what only Loopback has: names are claimed
// at Listen and released at Close, and a send to a name nobody holds
// fails synchronously.
func TestLoopbackRegistry(t *testing.T) {
	a, b := listening(t, newLoop), listening(t, newLoop)
	if err := NewLoopback(b.LocalAddr()).Listen(); err == nil {
		t.Fatal("duplicate loopback name must fail Listen")
	}
	if err := a.Send(b.LocalAddr(), testFrame(0)); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.LocalAddr(), testFrame(0)); err == nil {
		t.Fatal("send to a closed (unregistered) endpoint must fail")
	}
	if st := a.Stats()[b.LocalAddr()]; st.Sent != 2 || st.SendErrs != 1 {
		t.Fatalf("sender stats = %+v, want Sent=2 SendErrs=1", st)
	}
}

// TestRing pins the inbox ring's three promises: FIFO order across
// wrap-around, a capacity that starts small and stops at inboxCap, and
// no reference left behind in a vacated slot.
func TestRing(t *testing.T) {
	var r ring
	in := func(seq int) inFrame { return inFrame{from: "loop:x", f: testFrame(seq)} }
	next := 0 // seq expected from the next pop
	pop := func() {
		t.Helper()
		got, ok := r.pop()
		if !ok || seqOf(got.f) != next {
			t.Fatalf("pop = seq %d ok=%v, want seq %d", seqOf(got.f), ok, next)
		}
		next++
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop on an empty ring must report ok=false")
	}
	seq := 0
	// Interleave pushes and pops so head walks around a small buffer.
	for round := 0; round < 100; round++ {
		for i := 0; i < 5; i++ {
			if _, overrun := r.push(in(seq)); overrun {
				t.Fatal("overrun below inboxCap")
			}
			seq++
		}
		for i := 0; i < 4; i++ {
			pop()
		}
	}
	if len(r.buf) >= inboxCap {
		t.Fatalf("ring grew to %d slots holding %d frames; it must start small", len(r.buf), r.n)
	}
	// Fill to the cap and beyond: growth stops, the oldest is evicted.
	for r.n < inboxCap {
		r.push(in(seq))
		seq++
	}
	for i := 0; i < 3; i++ {
		ev, overrun := r.push(in(seq))
		seq++
		if !overrun || seqOf(ev.f) != next {
			t.Fatalf("push at cap evicted seq %d overrun=%v, want seq %d", seqOf(ev.f), overrun, next)
		}
		next++
	}
	if len(r.buf) != inboxCap || r.n != inboxCap {
		t.Fatalf("ring holds %d frames in %d slots, want both %d", r.n, len(r.buf), inboxCap)
	}
	for r.n > 0 {
		pop()
	}
	for i, slot := range r.buf {
		if slot.from != "" || slot.f.Payload != nil {
			t.Fatalf("slot %d still references %+v after pop", i, slot)
		}
	}
}

// soloEnvelope hand-builds the retired one-frame envelope (magic 0xA6)
// a pre-batching sender would have written; both wire transports must
// treat it as the garbage it now is.
func soloEnvelope(f wire.Frame) []byte {
	b := []byte{0xA6, 1, f.Kind, 0,
		byte(f.Src.X >> 8), byte(f.Src.X), byte(f.Src.Y >> 8), byte(f.Src.Y),
		byte(f.Dst.X >> 8), byte(f.Dst.X), byte(f.Dst.Y >> 8), byte(f.Dst.Y),
		byte(len(f.Payload) >> 8), byte(len(f.Payload))}
	b = append(b, f.Payload...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// malformedTotal sums the Malformed counter over every peer.
func malformedTotal(tr Transport) (n uint64) {
	for _, st := range tr.Stats() {
		n += st.Malformed
	}
	return n
}

func TestUDPMalformedDatagram(t *testing.T) {
	u := listening(t, newUDP)
	raw, err := net.Dial("udp", strings.TrimPrefix(string(u.LocalAddr()), "udp:"))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	good, err := wire.EncodeBatch([]wire.Frame{testFrame(5)})
	if err != nil {
		t.Fatal(err)
	}
	// Junk and a well-formed legacy solo envelope are each counted and
	// skipped; the datagram boundary resynchronizes, so a batch behind
	// them still arrives.
	for _, dgram := range [][]byte{[]byte("not a frame"), soloEnvelope(testFrame(4)), good} {
		if _, err := raw.Write(dgram); err != nil {
			t.Fatal(err)
		}
	}
	if _, f := recvDeadline(t, u, 5*time.Second); seqOf(f) != 5 {
		t.Fatalf("frame after the malformed datagrams has seq %d, want 5", seqOf(f))
	}
	if n := malformedTotal(u); n != 2 {
		t.Fatalf("Malformed = %d, want 2; stats = %+v", n, u.Stats())
	}
	if _, _, ok := u.Recv(); ok {
		t.Fatal("malformed datagrams must not reach the inbox")
	}
}

func TestTCPReconnect(t *testing.T) {
	a, b := NewTCP("tcp:127.0.0.1:0"), NewTCP("tcp:127.0.0.1:0")
	if err := a.Listen(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := b.Listen(); err != nil {
		t.Fatal(err)
	}
	addrB := b.LocalAddr()
	if err := a.Dial(addrB); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(addrB, testFrame(1)); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	if _, f := recvDeadline(t, b, 5*time.Second); seqOf(f) != 1 {
		t.Fatalf("pre-restart frame seq = %d, want 1", seqOf(f))
	}

	// Restart the receiver on the same port. The sender's connection is
	// now dead; writes fail once the RST lands and the sender redials.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := NewTCP(addrB)
	if err := b2.Listen(); err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := a.Send(addrB, testFrame(2)); err != nil {
			t.Fatal(err)
		}
		a.Flush()
		time.Sleep(10 * time.Millisecond)
		if _, f, ok := b2.Recv(); ok {
			if seqOf(f) != 2 {
				t.Fatalf("post-restart frame seq = %d, want 2", seqOf(f))
			}
			return
		}
	}
	t.Fatalf("no frame after receiver restart; sender stats = %+v", a.Stats()[addrB])
}

// TestTCPWildcardHello: endpoints listening on the wildcard address
// report it as their own, and their hellos name it; each acceptor must
// still keep a peer's receive counters in the cell that holds its send
// counters, keyed by the address it dialed.
func TestTCPWildcardHello(t *testing.T) {
	mk := func() Transport { return NewTCP("tcp:0.0.0.0:0") }
	a, b := listening(t, mk), listening(t, mk)
	dialed := func(tr Transport) Addr {
		_, port, err := net.SplitHostPort(strings.TrimPrefix(string(tr.LocalAddr()), "tcp:"))
		if err != nil {
			t.Fatal(err)
		}
		return Addr("tcp:" + net.JoinHostPort("127.0.0.1", port))
	}
	addrA, addrB := dialed(a), dialed(b)
	for _, d := range []struct {
		src, dst Transport
		to, from Addr
		n        int
	}{{a, b, addrB, addrA, 3}, {b, a, addrA, addrB, 2}} {
		if err := d.src.Dial(d.to); err != nil {
			t.Fatal(err)
		}
		sendSeqs(t, d.src, d.to, 0, d.n)
		for i := 0; i < d.n; i++ {
			if from, _ := recvDeadline(t, d.dst, 5*time.Second); from != d.from {
				t.Fatalf("frame attributed to %q, want the dialed %q", from, d.from)
			}
		}
	}
	for _, c := range []struct {
		tr         Transport
		peer       Addr
		sent, recv uint64
	}{{a, addrB, 3, 2}, {b, addrA, 2, 3}} {
		st := c.tr.Stats()
		if len(st) != 1 || st[c.peer].Sent != c.sent || st[c.peer].Recv != c.recv {
			t.Fatalf("stats = %+v, want one cell %q with Sent=%d and Recv=%d", st, c.peer, c.sent, c.recv)
		}
	}
}

// TestTCPMalformedRecord feeds a listener streams that go bad in every
// way the reader guards against. Each must be counted malformed exactly
// once, deliver nothing past the bad record, and lose its connection —
// a stream has no boundary to resynchronize on.
func TestTCPMalformedRecord(t *testing.T) {
	record := func(body []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	hello := func(addr string) []byte { return record(append([]byte("AGH1"), addr...)) }
	good, err := wire.EncodeBatch([]wire.Frame{testFrame(5)})
	if err != nil {
		t.Fatal(err)
	}
	const peer = "tcp:127.0.0.1:7"
	cases := []struct {
		name      string
		stream    [][]byte
		delivered int  // frames that must arrive before the stream is dropped
		blamed    Addr // who the malformed record is charged to; "" = the raw remote address
	}{
		{"junk", [][]byte{record([]byte("junk"))}, 0, ""},
		{"legacy solo envelope", [][]byte{hello(peer), record(soloEnvelope(testFrame(4)))}, 0, peer},
		{"absurd length prefix", [][]byte{{0xFF, 0xFF, 0xFF, 0xFF}}, 0, ""},
		{"late hello", [][]byte{hello(peer), record(good), hello("tcp:127.0.0.1:8")}, 1, peer},
		{"oversized hello", [][]byte{hello("tcp:" + strings.Repeat("a", tcpMaxHelloAddr))}, 0, ""},
		{"hello without a tcp: address", [][]byte{hello("udp:127.0.0.1:7")}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := listening(t, newTCP)
			raw, err := net.Dial("tcp", strings.TrimPrefix(string(tr.LocalAddr()), "tcp:"))
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			for _, rec := range tc.stream {
				if _, err := raw.Write(rec); err != nil {
					t.Fatal(err)
				}
			}
			blamed := tc.blamed
			if blamed == "" {
				blamed = Addr("tcp:" + raw.LocalAddr().String())
			}
			pollUntil(t, tr, "the malformed count", func() bool { return tr.Stats()[blamed].Malformed == 1 })
			stats := tr.Stats()
			if n := malformedTotal(tr); n != 1 || len(stats) != 1 {
				t.Fatalf("want one malformed record in one stats cell (%q), got %+v", blamed, stats)
			}
			if got := int(stats[blamed].Recv); got != tc.delivered {
				t.Fatalf("delivered %d frames, want %d", got, tc.delivered)
			}
			// The connection was dropped: the peer sees EOF or a reset,
			// not a read that times out on a stream still open.
			raw.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := raw.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("read after a corrupt record: err = %v, want a dropped connection", err)
			}
		})
	}
}

// TestTCPRecvRacesClose polls Recv on one goroutine while the endpoint
// closes under it and its peer keeps sending: nothing panics or races,
// and once Close has returned, Recv reports empty.
func TestTCPRecvRacesClose(t *testing.T) {
	a, b := listening(t, newTCP), listening(t, newTCP)
	addrA, addrB := a.LocalAddr(), b.LocalAddr()
	if err := a.Dial(addrB); err != nil {
		t.Fatal(err)
	}
	var closed atomic.Bool
	var late atomic.Int64 // frames Recv yielded after Close returned
	stop := make(chan struct{})
	var wg sync.WaitGroup
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt() // a failed wait below must not leave the loops spinning
	wg.Add(2)
	go func() {
		defer wg.Done()
		for seq := 0; ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			a.Send(addrB, testFrame(seq))
			a.Flush()
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			wasClosed := closed.Load()
			if _, _, ok := b.Recv(); ok && wasClosed {
				late.Add(1)
			}
		}
	}()
	eventually(t, "frames at b", func() bool { return b.Stats()[addrA].Recv > 0 })
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	closed.Store(true)
	sent := a.Stats()[addrB].Sent
	eventually(t, "a to keep sending", func() bool { return a.Stats()[addrB].Sent > sent+100 })
	halt()
	if _, _, ok := b.Recv(); ok || late.Load() != 0 {
		t.Fatalf("Recv after Close yielded %d frames (and ok=%v now), want none", late.Load(), ok)
	}
}

// TestTCPFlushRacesClose flushes on one goroutine while the endpoint
// closes: once Close has returned, no Flush writes or counts anything —
// not a batch, not a send error.
func TestTCPFlushRacesClose(t *testing.T) {
	a, b := listening(t, newTCP), listening(t, newTCP)
	addrA, addrB := a.LocalAddr(), b.LocalAddr()
	if err := a.Dial(addrB); err != nil {
		t.Fatal(err)
	}
	var flushes atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := 0; ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			a.Send(addrB, testFrame(seq))
			a.Flush()
			flushes.Add(1)
		}
	}()
	pollUntil(t, b, "frames at b", func() bool { return b.Stats()[addrA].Recv > 0 })
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	closed := a.Stats()[addrB]
	n := flushes.Load()
	eventually(t, "more flushes", func() bool { return flushes.Load() > n+100 })
	halt()
	if now := a.Stats()[addrB]; now != closed {
		t.Fatalf("counters moved after Close returned: %+v, then %+v", closed, now)
	}
}

// tighten overrides the thresholds of a's coalescer for peer; the
// production values are constants, so only a test can do this.
func tighten(a Transport, peer Addr, maxFrames int) {
	e := core(a)
	e.mu.Lock()
	co := e.out[peer]
	e.mu.Unlock()
	co.mu.Lock()
	co.maxFrames = maxFrames
	co.mu.Unlock()
}

func TestBatchingCoalesces(t *testing.T) {
	for _, sc := range schemes[1:] { // the wire transports; Loopback has no coalescer
		t.Run(sc.name, func(t *testing.T) {
			a, b := listening(t, sc.mk), listening(t, sc.mk)
			addrB := b.LocalAddr()
			if err := a.Dial(addrB); err != nil {
				t.Fatal(err)
			}
			// Only the count threshold and explicit Flush seal batches
			// here: no frame comes near the size threshold.
			tighten(a, addrB, 8)

			// Exactly maxFrames frames seal one batch with no flush.
			for i := 0; i < 8; i++ {
				if err := a.Send(addrB, testFrame(i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				recvDeadline(t, b, 5*time.Second)
			}
			if st := a.Stats()[addrB]; st.Batches != 1 {
				t.Fatalf("%s stats after count-threshold seal = %+v, want Batches=1", sc.name, st)
			}

			// A partial batch stays pending until Flush seals it.
			for i := 0; i < 3; i++ {
				if err := a.Send(addrB, testFrame(100+i)); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(50 * time.Millisecond)
			if _, _, ok := b.Recv(); ok {
				t.Fatalf("%s: partial batch delivered before Flush", sc.name)
			}
			a.Flush()
			for i := 0; i < 3; i++ {
				recvDeadline(t, b, 5*time.Second)
			}
			st := a.Stats()[addrB]
			if st.Batches != 2 {
				t.Fatalf("%s stats after Flush = %+v, want Batches=2", sc.name, st)
			}
			if got := st.FramesPerBatch(); got < 5 || got > 6 {
				t.Fatalf("%s FramesPerBatch = %v, want 11/2", sc.name, got)
			}
		})
	}
}

// capture is a Receiver recording every frame it hears.
type capture struct{ got []radio.Frame }

func (c *capture) ReceiveFrame(f radio.Frame) {
	f.Payload = bytes.Clone(f.Payload) // a received payload is valid only during the call
	c.got = append(c.got, f)
}

// bridgeHalf is one process of a split 2x1 field for the unit test:
// a 1-mote medium plus the bridge standing in for the other mote.
type bridgeHalf struct {
	sim  *sim.Parallel
	med  *radio.Medium
	node *capture
	br   *Bridge
}

func newBridgeHalf(t *testing.T, name string, own, remote topology.Location, peer Addr) *bridgeHalf {
	t.Helper()
	h := &bridgeHalf{sim: sim.New(1), node: &capture{}}
	h.med = radio.NewMedium(h.sim, topology.Grid{}, radio.ZeroLoss())
	if err := h.med.Attach(own, h.node); err != nil {
		t.Fatal(err)
	}
	br, err := NewBridge(NewLoopback(Addr(name)), h.med,
		[]topology.Location{own}, map[topology.Location]Addr{remote: peer})
	if err != nil {
		t.Fatal(err)
	}
	h.br = br
	return h
}

func (h *bridgeHalf) step(t *testing.T) {
	t.Helper()
	h.br.Pump()
	if err := h.sim.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
}

func TestBridgeRelayAcrossLoopback(t *testing.T) {
	locA, locB := topology.Loc(1, 1), topology.Loc(2, 1)
	a := newBridgeHalf(t, "loop:half-a", locA, locB, "loop:half-b")
	defer a.br.Close()
	b := newBridgeHalf(t, "loop:half-b", locB, locA, "loop:half-a")
	defer b.br.Close()

	// A unicast from A's mote to the remote coordinate crosses the wire
	// and lands on B's mote.
	a.med.Send(radio.Frame{Src: locA, Dst: locB, Kind: radio.KindRemoteTS, Payload: []byte{42}})
	a.step(t) // radio model delivers to the border port, which relays
	b.step(t) // pump injects; run delivers
	if len(b.node.got) != 1 || b.node.got[0].Payload[0] != 42 {
		t.Fatalf("remote mote heard %+v, want one frame with payload [42]", b.node.got)
	}
	if st := a.br.Stats(); st.Relayed != 1 {
		t.Fatalf("A bridge stats = %+v, want Relayed=1", st)
	}
	// The relayed frame's true on-wire size: one record in one container.
	if st := a.br.Transport().Stats()["loop:half-b"]; st.SentBytes != wire.BatchOverhead+wire.FrameRecordOverhead+1 {
		t.Fatalf("A transport stats = %+v, want SentBytes = one 1-byte-payload batch", st)
	}
	if st := b.br.Stats(); st.Injected != 1 {
		t.Fatalf("B bridge stats = %+v, want Injected=1", st)
	}

	// A broadcast reaches the border port like any neighbor; the port
	// claims it as a unicast to its own coordinate, so the remote mote
	// hears it exactly once and nothing echoes back.
	a.med.Send(radio.Frame{Src: locA, Dst: radio.Broadcast, Kind: radio.KindBeacon})
	a.step(t)
	b.step(t)
	b.step(t) // extra rounds must not produce duplicates or echoes
	a.step(t)
	if len(b.node.got) != 2 {
		t.Fatalf("remote mote heard %d frames after broadcast, want 2", len(b.node.got))
	}
	if got := b.node.got[1]; got.Dst != locB || got.Kind != radio.KindBeacon {
		t.Fatalf("broadcast relayed as %+v, want beacon unicast to %v", got, locB)
	}
	if len(a.node.got) != 0 {
		t.Fatalf("A's mote heard %d echoed frames, want 0", len(a.node.got))
	}
	if st := a.br.Stats(); st.Injected != 0 {
		t.Fatalf("A injected %d frames, want 0 (no echo)", st.Injected)
	}

	// Frames for coordinates this process does not own are counted
	// misrouted and dropped; frames for detached nodes are stale.
	if err := a.br.Transport().Send("loop:half-b", wire.Frame{
		Kind: uint8(radio.KindBeacon), Src: locA, Dst: topology.Loc(9, 9),
	}); err != nil {
		t.Fatal(err)
	}
	b.step(t)
	if st := b.br.Stats(); st.Misrouted != 1 {
		t.Fatalf("B bridge stats = %+v, want Misrouted=1", st)
	}
	b.med.Detach(locB)
	if err := a.br.Transport().Send("loop:half-b", wire.Frame{
		Kind: uint8(radio.KindRemoteTS), Src: locA, Dst: locB,
	}); err != nil {
		t.Fatal(err)
	}
	b.step(t)
	if st := b.br.Stats(); st.Stale != 1 {
		t.Fatalf("B bridge stats = %+v, want Stale=1", st)
	}
}

func TestBridgeRejectsOverlap(t *testing.T) {
	s := sim.New(1)
	med := radio.NewMedium(s, topology.Grid{}, radio.ZeroLoss())
	loc := topology.Loc(1, 1)
	_, err := NewBridge(NewLoopback("loop:overlap"), med,
		[]topology.Location{loc}, map[topology.Location]Addr{loc: "loop:peer"})
	if err == nil {
		t.Fatal("a location owned locally and by a peer must fail NewBridge")
	}
	if fmt.Sprint(err) == "" {
		t.Fatal("error must describe the overlap")
	}
}

// splitGrid splits a w×h grid at column x: local gets columns 1..x and
// the base at (0,0), peers the rest, all served by peer.
func splitGrid(w, h, x int16, peer Addr) (local []topology.Location, peers map[topology.Location]Addr) {
	local = []topology.Location{topology.Loc(0, 0)}
	peers = make(map[topology.Location]Addr)
	for yy := int16(1); yy <= h; yy++ {
		for xx := int16(1); xx <= w; xx++ {
			if l := topology.Loc(xx, yy); xx <= x {
				local = append(local, l)
			} else {
				peers[l] = peer
			}
		}
	}
	return local, peers
}

// TestBridgeAttachesRing pins that a bridge over an enumerable topology
// attaches a port exactly at the peer-owned locations some local
// location is connected to, found here by brute force over Connected,
// while Owns still answers for every peer-owned location.
func TestBridgeAttachesRing(t *testing.T) {
	for _, diag := range []bool{false, true} {
		topo := topology.WithBase{Inner: topology.Grid{Diag: diag}, Base: topology.Loc(0, 0), Gateway: topology.Loc(1, 1)}
		med := radio.NewMedium(sim.New(1), topo, radio.ZeroLoss())
		local, peers := splitGrid(40, 20, 20, "loop:ring-peer")
		br, err := NewBridge(NewLoopback(Addr(fmt.Sprintf("loop:ring-%v", diag))), med, local, peers)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[topology.Location]bool)
		for r := range peers {
			for _, l := range local {
				if topo.Connected(l, r) {
					want[r] = true
				}
			}
		}
		if len(want) != 20 {
			t.Fatalf("diag=%v: brute force found a ring of %d, want the 20 motes of column 21", diag, len(want))
		}
		for r := range peers {
			if med.Attached(r) != want[r] {
				t.Fatalf("diag=%v: port at %v is %v, want %v (the ring %v)", diag, r, med.Attached(r), want[r], want)
			}
			if !br.Owns(r) {
				t.Fatalf("diag=%v: Owns(%v) = false for a peer-owned location off the ring", diag, r)
			}
		}
		br.Close()
	}
}

// TestBridgeDiskAttachesAll pins the fallback: a topology that cannot
// enumerate neighbours gets a port at every peer-owned location, and
// AttachNear then has nothing to add.
func TestBridgeDiskAttachesAll(t *testing.T) {
	med := radio.NewMedium(sim.New(1), topology.Disk{Range: 1.5}, radio.ZeroLoss())
	local, peers := splitGrid(8, 4, 4, "loop:disk-peer")
	br, err := NewBridge(NewLoopback("loop:disk"), med, local, peers)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	for r := range peers {
		if !med.Attached(r) {
			t.Fatalf("no port at peer-owned %v", r)
		}
	}
	if err := br.AttachNear(topology.Loc(9, 2)); err != nil {
		t.Fatal(err)
	}
}

// TestBridgeAttachNear pins that AttachNear extends the ring by the
// peer-owned neighbours of its location and nothing else, and that a
// second call for the same location is a no-op.
func TestBridgeAttachNear(t *testing.T) {
	med := radio.NewMedium(sim.New(1), topology.Grid{}, radio.ZeroLoss())
	local, peers := splitGrid(8, 4, 4, "loop:near-peer")
	br, err := NewBridge(NewLoopback("loop:near"), med, local, peers)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	ports := func() (at []topology.Location) {
		for r := range peers {
			if med.Attached(r) {
				at = append(at, r)
			}
		}
		return at
	}
	ring := len(ports())
	for range 2 {
		if err := br.AttachNear(topology.Loc(9, 2)); err != nil {
			t.Fatal(err)
		}
		if at := ports(); !med.Attached(topology.Loc(8, 2)) || len(at) != ring+1 {
			t.Fatalf("after AttachNear(9,2): ports %v, want the ring of %d plus (8,2)", at, ring)
		}
	}
}

// TestBridgeDropsSpoofed sends frames over loop: whose source could not
// have crossed a border hop to their destination — a local source, a
// source nobody owns, a peer-owned source out of radio range — and
// checks that each is counted Spoofed and never injected, while a frame
// from a peer-owned neighbour is.
func TestBridgeDropsSpoofed(t *testing.T) {
	peer := listening(t, func() Transport { return NewLoopback("loop:spoof-peer") })
	defer peer.Close()
	s := sim.New(1)
	med := radio.NewMedium(s, topology.Grid{}, radio.ZeroLoss())
	dst, other := &capture{}, &capture{}
	at, beside := topology.Loc(2, 1), topology.Loc(3, 1)
	if err := med.Attach(at, dst); err != nil {
		t.Fatal(err)
	}
	if err := med.Attach(beside, other); err != nil {
		t.Fatal(err)
	}
	br, err := NewBridge(NewLoopback("loop:spoof"), med, []topology.Location{at, beside},
		map[topology.Location]Addr{topology.Loc(1, 1): peer.LocalAddr(), topology.Loc(5, 1): peer.LocalAddr()})
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	send := func(src topology.Location, payload byte) {
		t.Helper()
		f := wire.Frame{Kind: uint8(radio.KindRemoteTS), Src: src, Dst: at, Payload: []byte{payload}}
		if err := peer.Send("loop:spoof", f); err != nil {
			t.Fatal(err)
		}
	}
	send(beside, 1)              // local
	send(topology.Loc(2, 2), 2)  // owned by nobody
	send(topology.Loc(5, 1), 3)  // peer-owned, out of range
	send(topology.Loc(1, 1), 42) // peer-owned neighbour: the only real hop
	if n := br.Pump(); n != 1 {
		t.Fatalf("Pump injected %d frames, want 1", n)
	}
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(dst.got) != 1 || dst.got[0].Payload[0] != 42 || len(other.got) != 0 {
		t.Fatalf("motes heard %+v and %+v, want only the frame from the neighbour", dst.got, other.got)
	}
	st := br.Stats()
	if st.Spoofed != 3 || st.Injected != 1 || st.Misrouted != 0 || st.Stale != 0 {
		t.Fatalf("bridge stats %+v, want 3 spoofed and 1 injected", st)
	}
	if !strings.Contains(st.String(), "spoofed 3") {
		t.Fatalf("stats render %q without the spoofed count", st)
	}
}

// BenchmarkTCPFlushToRecv times one frame's Send, Flush and arrival at
// the peer's Recv on localhost: the latency a bridged quantum pays per
// border hop.
func BenchmarkTCPFlushToRecv(b *testing.B) {
	src, dst := NewTCP("tcp:127.0.0.1:0"), NewTCP("tcp:127.0.0.1:0")
	for _, tr := range []*TCP{src, dst} {
		if err := tr.Listen(); err != nil {
			b.Fatal(err)
		}
		defer tr.Close()
	}
	peer := dst.LocalAddr()
	if err := src.Dial(peer); err != nil {
		b.Fatal(err)
	}
	f := testFrame(1)
	hop := func() bool {
		if err := src.Send(peer, f); err != nil {
			b.Fatal(err)
		}
		src.Flush()
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
			if _, _, ok := dst.Recv(); ok {
				return true
			}
		}
		return false
	}
	if !hop() { // the first hop dials
		b.Fatal("no frame within 5 s")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !hop() {
			b.Fatal("no frame within 5 s")
		}
	}
}
