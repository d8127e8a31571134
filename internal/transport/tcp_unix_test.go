//go:build unix

package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/wire"
)

// TestTCPDrainReassembles runs drain on an accepted connection that is
// not registered for Recv to poll: a hello and three batch records — the last one
// bigger than the reassembly buffer — written a byte at a time and then
// in one write, must come out whole, in order and attributed to the
// hello's address, with nothing counted malformed and the buffer back
// at its steady-state size. (Byte by byte, the second record is read
// over the first one's bytes: a payload aliasing the buffer shows.)
func TestTCPDrainReassembles(t *testing.T) {
	const peer = "tcp:127.0.0.1:7"
	big := testFrame(3)
	big.Payload = append(big.Payload, make([]byte, tcpRecvBuf)...)
	stream := binary.BigEndian.AppendUint32(nil, uint32(len(tcpHelloMagic)+len(peer)))
	stream = append(append(stream, tcpHelloMagic...), peer...)
	for _, frames := range [][]wire.Frame{{testFrame(0), testFrame(1)}, {testFrame(2)}, {big}} {
		b, err := wire.EncodeBatch(frames)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(binary.BigEndian.AppendUint32(stream, uint32(len(b))), b...)
	}
	for _, tc := range []struct {
		name  string
		chunk int
	}{{"byte by byte", 1}, {"one write", len(stream)}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := listening(t, newTCP).(*TCP)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			client, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			server, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer server.Close()
			rc := tr.newRecv(server) // not registered: no Recv poll
			drain := func() {
				rc.mu.Lock()
				defer rc.mu.Unlock()
				if err := rc.raw.Control(rc.poll); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < len(stream); i += tc.chunk {
				if _, err := client.Write(stream[i:min(i+tc.chunk, len(stream))]); err != nil {
					t.Fatal(err)
				}
				drain()
			}
			got := 0
			eventually(t, "all four frames", func() bool {
				drain()
				for {
					from, f, ok := tr.endpoint.Recv()
					if !ok {
						return got == 4
					}
					if from != peer || seqOf(f) != got {
						t.Fatalf("frame %d: seq %d from %q, want seq %d from %q", got, seqOf(f), from, got, peer)
					}
					got++
				}
			})
			if n := malformedTotal(tr); n != 0 || rc.done {
				t.Fatalf("malformed = %d, done = %v; want 0, false", n, rc.done)
			}
			if cap(rc.buf) > tcpRecvBuf {
				t.Fatalf("reassembly buffer kept %d bytes after the big record, want <= %d", cap(rc.buf), tcpRecvBuf)
			}
		})
	}
}

// TestTCPRecvIsTheOnlyReader: a batch written to an accepted connection
// stays in the socket until the receiver's Recv reads it; no goroutine
// delivers it to the inbox, or counts it, in the meantime.
func TestTCPRecvIsTheOnlyReader(t *testing.T) {
	a, b := listening(t, newTCP).(*TCP), listening(t, newTCP).(*TCP)
	addrA, addrB := a.LocalAddr(), b.LocalAddr()
	if err := a.Dial(addrB); err != nil {
		t.Fatal(err)
	}
	sendSeqs(t, a, addrB, 4, 5)
	eventually(t, "a's batch counted", func() bool { return a.Stats()[addrB].Batches == 1 })
	a.mu.Lock()
	s := a.sends[0]
	a.mu.Unlock()
	s.mu.Lock() // the write that counted the batch holds s.mu until it returns
	s.mu.Unlock()
	if st := a.Stats()[addrB]; st.SendErrs != 0 || st.Dropped != 0 {
		t.Fatalf("a's stats = %+v, want the batch written", st)
	}
	eventually(t, "b to accept", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.conns) == 1
	})
	time.Sleep(50 * time.Millisecond)
	if st := b.Stats()[addrA]; st.Recv != 0 {
		t.Fatalf("b counted %d frames before any Recv, want 0", st.Recv)
	}
	from, f, ok := b.Recv()
	if !ok {
		t.Fatal("b's first Recv found no frame")
	}
	if from != addrA || seqOf(f) != 4 {
		t.Fatalf("first Recv = seq %d from %q, want seq 4 from %q", seqOf(f), from, addrA)
	}
}

// sink listens on localhost for a TCP endpoint to dial and hands over
// the connection it accepts: a peer that reads only when the test does.
func sink(t *testing.T) (Addr, func() net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accept := func() net.Conn {
		t.Helper()
		_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		// Registered after the sender's cleanup, so it runs first: a
		// sender blocked on this peer fails its write instead of waiting.
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	return Addr("tcp:" + ln.Addr().String()), accept
}

// TestTCPFlushWritesInline: on a warm link, a frame that Flush seals is
// at the peer's Recv before the sender goroutine has had a chance to
// run. With one P and no yield between Flush and the polls, a frame
// left to the sender goroutine arrives only when the scheduler happens
// to hand the P over during a syscall (16 to 29 rounds of 50, over ten
// runs on a 2-vCPU box, when Flush only queued its batches).
func TestTCPFlushWritesInline(t *testing.T) {
	a, b := listening(t, newTCP), listening(t, newTCP)
	addrB := b.LocalAddr()
	if err := a.Dial(addrB); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(addrB, testFrame(0)); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	recvDeadline(t, b, 5*time.Second)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds, polls = 50, 1000
	delivered := 0
	for round := 1; round <= rounds; round++ {
		if err := a.Send(addrB, testFrame(round)); err != nil {
			t.Fatal(err)
		}
		a.Flush()
		for i := 0; i < polls; i++ {
			if _, _, ok := b.Recv(); ok {
				delivered++
				break
			}
		}
	}
	if delivered < rounds*9/10 {
		t.Fatalf("%d of %d flushed frames reached the peer's Recv within %d polls, want >= %d",
			delivered, rounds, polls, rounds*9/10)
	}
}

// numbered is a frame whose payload opens with its 32-bit number and is
// filled out to size bytes.
func numbered(n uint32, size int) wire.Frame {
	f := testFrame(0)
	f.Payload = binary.BigEndian.AppendUint32(make([]byte, 0, size), n)
	f.Payload = f.Payload[:size]
	return f
}

// TestTCPFlushNeverBlocks sends to a peer that accepts and does not
// read until the socket is full and the send queue has dropped frames,
// flushing after every frame: no Flush may wait for the peer. Then the
// peer reads the stream. Every record must parse — a record the socket
// took only in part is finished before any later one — and the frames
// must arrive in order, each once, except exactly those counted dropped.
func TestTCPFlushNeverBlocks(t *testing.T) {
	const (
		size    = 1000
		atLeast = 8 << 20   // bytes offered before the peer reads
		most    = 256 << 20 // and at most this many: the socket must fill first
	)
	peer, accept := sink(t)
	a := listening(t, newTCP)
	if err := a.Dial(peer); err != nil {
		t.Fatal(err)
	}
	var sent uint32
	var slowest time.Duration
	offer := func() {
		if err := a.Send(peer, numbered(sent, size)); err != nil {
			t.Fatal(err)
		}
		sent++
		start := time.Now()
		a.Flush()
		slowest = max(slowest, time.Since(start))
	}
	offer()
	conn := accept()
	for sent*size < atLeast || a.Stats()[peer].Dropped == 0 {
		if sent*size >= most {
			t.Fatalf("%d MB offered to a peer that does not read and nothing dropped", most>>20)
		}
		offer()
	}
	if slowest > time.Second {
		t.Fatalf("the slowest Flush took %v, want it never to wait for the peer", slowest)
	}
	st := a.Stats()[peer]
	if st.SendErrs != 0 {
		t.Fatalf("send errors = %d, want 0", st.SendErrs)
	}
	want := int(uint64(sent) - st.Dropped)

	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	got := readNumbered(t, conn, want, size)
	// Nothing more: a frame counted dropped must not arrive after all.
	_ = conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if n, err := conn.Read(make([]byte, 1)); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%d frames arrived, then read %d more bytes (%v); want exactly sent %d - dropped %d",
			got, n, err, sent, st.Dropped)
	}
	if now := a.Stats()[peer]; now.Dropped != st.Dropped || now.SendErrs != 0 {
		t.Fatalf("stats moved after the last Flush: %+v, then %+v", st, now)
	}
}

// readNumbered reads a dialer's stream from conn — a hello, then batch
// records — until want numbered frames of size bytes have arrived, and
// returns how many did. Every record must parse and frame numbers only
// increase; a read error, such as conn's deadline passing, fails t.
func readNumbered(t *testing.T, conn net.Conn, want, size int) (got int) {
	t.Helper()
	record := func() ([]byte, error) {
		var prefix [tcpFraming]byte
		if _, err := io.ReadFull(conn, prefix[:]); err != nil {
			return nil, err
		}
		n := binary.BigEndian.Uint32(prefix[:])
		if n == 0 || n > tcpMaxRecord {
			t.Fatalf("record length %d", n)
		}
		rec := make([]byte, n)
		_, err := io.ReadFull(conn, rec)
		return rec, err
	}
	hello, err := record()
	if err != nil || !bytes.HasPrefix(hello, tcpHelloMagic) {
		t.Fatalf("first record %q, %v: want a hello", hello, err)
	}
	next := uint32(0)
	for got < want {
		rec, err := record()
		if err != nil {
			t.Fatalf("after %d of %d frames: %v", got, want, err)
		}
		frames, err := wire.DecodeBatch(rec)
		if err != nil {
			t.Fatalf("record after %d frames does not parse: %v", got, err)
		}
		for _, f := range frames {
			n := binary.BigEndian.Uint32(f.Payload)
			if n < next || len(f.Payload) != size {
				t.Fatalf("frame %d (%d bytes) after frame %d", n, len(f.Payload), next-1)
			}
			next = n + 1
			got++
		}
	}
	return got
}

// TestTCPFlushWakesForTail: a Flush whose socket takes the last queued
// record only in part leaves its tail to the sender goroutine, and wakes
// it even though the queue is then empty. The peer accepts and does not
// read; frames go out one Send + Flush at a time until a record is
// unwritten in part. Then the sender falls quiet — no later batch will
// wake anyone — and the peer reads: every frame sent must arrive.
func TestTCPFlushWakesForTail(t *testing.T) {
	const (
		size = 1000
		most = 256 << 20 // bytes offered before giving up on a full socket
	)
	peer, accept := sink(t)
	a := listening(t, newTCP).(*TCP)
	if err := a.Dial(peer); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	s := a.sends[0]
	a.mu.Unlock()
	var sent uint32
	offer := func() {
		if err := a.Send(peer, numbered(sent, size)); err != nil {
			t.Fatal(err)
		}
		sent++
		a.Flush()
	}
	offer()
	conn := accept()
	eventually(t, "the first frame written", func() bool { return a.Stats()[peer].Batches == 1 })
	// From here the goroutine runs only when Flush wakes it, which now
	// means for a tail: a writer holding s.mu is blocked on one.
	tail := func() bool {
		if !s.mu.TryLock() {
			return true
		}
		defer s.mu.Unlock()
		return len(s.rec) > 0
	}
	for !tail() {
		if sent*size >= most {
			t.Fatalf("%d MB offered to a peer that does not read and no write was partial", most>>20)
		}
		offer()
	}
	st := a.Stats()[peer]
	if st.Dropped != 0 || st.SendErrs != 0 {
		t.Fatalf("dropped = %d, send errors = %d before the socket filled; want 0, 0", st.Dropped, st.SendErrs)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	readNumbered(t, conn, int(sent), size)
}

// TestTCPCloseStalledPeer: Close returns even while the sender
// goroutine is blocked writing to a peer that stopped reading.
func TestTCPCloseStalledPeer(t *testing.T) {
	peer, accept := sink(t)
	a := NewTCP("tcp:127.0.0.1:0")
	if err := a.Listen(); err != nil {
		t.Fatal(err)
	}
	if err := a.Dial(peer); err != nil {
		t.Fatal(err)
	}
	for n := uint32(0); n == 0 || a.Stats()[peer].Dropped == 0; n++ {
		if err := a.Send(peer, numbered(n, 1000)); err != nil {
			t.Fatal(err)
		}
		a.Flush()
		if n == 0 {
			accept()
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- a.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting after 5 s for a sender blocked on a stalled peer")
	}
}

// TestTCPFlushAllocatesNothing: a steady-state Send and Flush of one
// frame on a connected link allocates nothing; the write goes through a
// callback bound once per peer.
func TestTCPFlushAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	peer, accept := sink(t)
	a := listening(t, newTCP)
	if err := a.Dial(peer); err != nil {
		t.Fatal(err)
	}
	f := testFrame(1)
	cycle := func() {
		if err := a.Send(peer, f); err != nil {
			t.Fatal(err)
		}
		a.Flush()
	}
	cycle()
	conn := accept()
	go func() { _, _ = io.Copy(io.Discard, conn) }()
	eventually(t, "the link up", func() bool {
		cycle()
		return a.Stats()[peer].Batches > 0
	})
	for i := 0; i < 100; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Errorf("Send + Flush allocates %.2f objects, want 0", avg)
	}
}
