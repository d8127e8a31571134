package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/agilla-go/agilla/internal/wire"
)

// The TCP transport: the lossless stream wire for inter-shard links.
// Where UDP mirrors the radio's failure model (loss, reordering,
// duplication) and leans on the protocols above to recover, TCP gives a
// border link that never drops or reorders in flight — the right wire
// when two shards sit in one rack and retransmission latency costs more
// than it buys.
//
// Stream layout: a sequence of length-prefixed records, each a 4-byte
// big-endian length followed by that many bytes. The first record a
// dialer writes is a hello naming its own listen address, so the
// acceptor can attribute inbound traffic to the dialed peer address
// (the TCP source port of an outbound connection is ephemeral and names
// nothing). Every later record is one wire.Batch. The batch's own CRC
// guards record integrity; the length prefix only frames the stream. A
// record that fails to decode — or a hello anywhere but first, or one
// that does not name a plausible tcp: address — means the stream is
// corrupt or hostile: it is counted malformed and the connection is
// dropped — unlike UDP there is no datagram boundary to resynchronize
// on.
//
// No goroutine reads an accepted connection on unix (tcp_unix.go): Recv
// on an empty inbox reads what the sockets already hold, without
// blocking, and feeds each connection's bytes to its record parser.
// Waking a parked reader goroutine instead could take milliseconds while
// the host spins on Recv. Only a build without non-blocking reads
// (tcp_other.go) gives each connection a blocking reader goroutine.
//
// Each dialed peer gets one outbound connection, established lazily and
// re-established on error with a backoff, so a peer that starts late or
// restarts is picked up without any external supervision; batches
// sealed while the link is down fall to the drop-oldest queue
// discipline like any overflow. On unix (tcp_unix.go) Flush writes the
// batches it seals straight to the socket, on the caller's goroutine
// and without blocking; waking a sender goroutine can cost as much as
// the socket round trip. The peer's sender goroutine keeps what must
// wait: dialing, batches sealed by size or count, and a record the
// socket took only in part; writing every batch inline instead was
// measured to cut a loopback flood's throughput by about 30%. Both
// writers pop the queue and write only under the peer's send record's
// mutex, so records reach the stream whole and in the order they were
// sealed. Nagle is disabled
// (SetNoDelay) — the coalescer already decides what a write is, and the
// kernel's own batching delay would hold back the tail of every Flush.

const (
	// tcpFraming is the length prefix in front of every record.
	tcpFraming = 4
	// tcpMaxRecord bounds a length prefix before any allocation: far
	// past the biggest legal batch, small enough to reject absurdity.
	tcpMaxRecord = 1 << 20
	// tcpRecvBuf sizes a connection's reassembly buffer; only a record
	// bigger than that grows it, for as long as that record is pending.
	tcpRecvBuf = 16 << 10
	// tcpMaxHelloAddr bounds the address a hello may claim, which
	// becomes a key of the stats table: generous for "tcp:" plus a DNS
	// name and port, far too small to grow the table by the megabyte.
	tcpMaxHelloAddr = 256
	// tcpRedialBackoff spaces reconnect attempts to a dead peer.
	tcpRedialBackoff = 50 * time.Millisecond
	// tcpDialTimeout bounds one connect attempt so a sender goroutine
	// never wedges on an unroutable peer.
	tcpDialTimeout = 2 * time.Second
)

// tcpHelloMagic opens the first record on every outbound connection,
// followed by the dialer's scheme-prefixed listen address.
var tcpHelloMagic = []byte("AGH1")

// TCP is a stream-socket Transport. Construct with NewTCP (or Open with
// a "tcp:" address).
type TCP struct {
	endpoint
	ln    net.Listener // set by Listen, under mu
	conns []*tcpRecv   // accepted connections, for Recv and Close; under mu
	sends []*tcpSend   // dialed peers, for Flush and Close; append-only until Close; under mu
}

// NewTCP creates an endpoint bound to addr ("tcp:host:port") at Listen.
func NewTCP(addr Addr) *TCP {
	return &TCP{endpoint: newEndpoint(addr)}
}

// Listen binds the listener and starts the accept loop.
func (t *TCP) Listen() error {
	hp, err := hostPort(t.addr, "tcp:")
	if err != nil {
		return err
	}
	return t.listen(func() error {
		ln, err := net.Listen("tcp", hp)
		if err != nil {
			return fmt.Errorf("transport: listen %q: %v", t.addr, err)
		}
		t.ln = ln
		t.wg.Add(1)
		go t.acceptLoop(ln)
		return nil
	})
}

// acceptLoop registers each inbound connection for Recv to read.
func (t *TCP) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // closed
		}
		rc := t.newRecv(conn)
		t.mu.Lock()
		if !t.live {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns = append(t.conns, rc)
		t.mu.Unlock()
		t.serve(rc)
	}
}

// dropConn unregisters and closes an accepted connection. The list is
// copied, not edited in place: Recv polls a snapshot of it unlocked.
func (t *TCP) dropConn(rc *tcpRecv) {
	t.mu.Lock()
	t.conns = slices.DeleteFunc(slices.Clone(t.conns), func(c *tcpRecv) bool { return c == rc })
	t.mu.Unlock()
	rc.conn.Close()
}

// tcpRecv is one accepted connection's receive state. Its readers —
// concurrent Recv calls, or the reader goroutine off unix — take turns
// under mu, so records reach the inbox whole and in stream order.
type tcpRecv struct {
	conn net.Conn
	raw  syscall.RawConn  // unix: non-blocking access to conn's descriptor
	poll func(fd uintptr) // unix: drain bound to rc, so a poll allocates nothing

	mu      sync.Mutex
	buf     []byte // reassembly buffer; buf[head:] is not yet parsed
	head    int
	from    Addr // until a hello arrives, the wire-level remote address
	started bool // the first record, the only one a hello may be, is parsed
	done    bool // the stream ended or corrupted; its reader drops it
}

// space returns the buffer's free tail, which parse leaves non-empty.
func (rc *tcpRecv) space() []byte {
	if rc.buf == nil {
		rc.buf = make([]byte, 0, tcpRecvBuf)
	}
	return rc.buf[len(rc.buf):cap(rc.buf)]
}

// parse takes n bytes just read into space and delivers every record
// they complete. It reports false when the stream must be dropped — a
// corrupt record poisons the framing (the dialer reconnects and resumes
// from a clean boundary) — or the endpoint has closed.
func (t *TCP) parse(rc *tcpRecv, n int) bool {
	rc.buf = rc.buf[:len(rc.buf)+n]
	for {
		pending := rc.buf[rc.head:]
		need := tcpFraming
		if len(pending) >= tcpFraming {
			size := binary.BigEndian.Uint32(pending)
			if size == 0 || size > tcpMaxRecord {
				t.reject(rc.from)
				return false
			}
			need += int(size)
		}
		if len(pending) < need {
			rc.fit(need)
			return true
		}
		data := pending[tcpFraming:need]
		rc.head += need
		// A hello counts only as the first record; a later one falls
		// through to deliver, which rejects it like any other non-batch.
		if !rc.started {
			rc.started = true
			if bytes.HasPrefix(data, tcpHelloMagic) {
				peer := string(data[len(tcpHelloMagic):])
				if len(peer) > tcpMaxHelloAddr || !strings.HasPrefix(peer, "tcp:") {
					t.reject(rc.from)
					return false
				}
				rc.from = helloAddr(peer, rc.conn.RemoteAddr())
				continue
			}
		}
		// Each record gets its own allocation: decoded payloads alias
		// it, and callers may hold frames across Recv calls.
		if !t.deliver(rc.from, bytes.Clone(data), tcpFraming) {
			return false
		}
	}
}

// helloAddr is the address a hello names, with a wildcard host (a
// listener on tcp:0.0.0.0:0 names itself so) replaced by the IP the
// connection came from, so a peer dialed by that IP counts in one cell.
func helloAddr(peer string, remote net.Addr) Addr {
	host, port, err := net.SplitHostPort(peer[len("tcp:"):])
	ra, ok := remote.(*net.TCPAddr)
	if err != nil || !ok || !net.ParseIP(host).IsUnspecified() {
		return Addr(peer)
	}
	return Addr("tcp:" + net.JoinHostPort(ra.IP.String(), port))
}

// fit makes room for a pending record of need bytes: an empty buffer
// rewinds (or is released, if a big record grew it), a record that
// outgrows the buffer moves to one of its size, and one that would run
// past the end slides to the front.
func (rc *tcpRecv) fit(need int) {
	pending := rc.buf[rc.head:]
	switch {
	case len(pending) == 0 && cap(rc.buf) > tcpRecvBuf:
		rc.buf = nil
	case len(pending) == 0:
		rc.buf = rc.buf[:0]
	case need > cap(rc.buf):
		rc.buf = append(make([]byte, 0, need), pending...)
	case rc.head+need > cap(rc.buf):
		rc.buf = rc.buf[:copy(rc.buf, pending)]
	default:
		return
	}
	rc.head = 0
}

// Recv pops the oldest received frame, non-blocking. On an empty inbox
// it first reads what the accepted connections already hold (poll),
// which on unix is the only way a frame reaches the inbox.
func (t *TCP) Recv() (Addr, wire.Frame, bool) {
	if from, f, ok := t.endpoint.Recv(); ok {
		return from, f, ok
	}
	t.poll()
	return t.endpoint.Recv()
}

// reject charges one record that never reached the batch decoder — an
// absurd length prefix, a bad hello — to a peer.
func (t *TCP) reject(from Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.live {
		t.peerStats(from).Malformed++
	}
}

// Dial registers the peer, gives it a coalescer and a send record, and
// starts its sender goroutine; the connection itself is established
// lazily (and re-established after errors), so dialing a peer that has
// not started yet succeeds and traffic flows once it does. Idempotent.
func (t *TCP) Dial(addr Addr) error {
	hp, err := hostPort(addr, "tcp:")
	if err != nil {
		return err
	}
	if _, _, err := net.SplitHostPort(hp); err != nil {
		return fmt.Errorf("transport: peer %q: %v", addr, err)
	}
	return t.dial(addr, func(co *coalescer, st *PeerStats) func() {
		s := &tcpSend{hp: hp, co: co, st: st}
		t.sends = append(t.sends, s) // dial holds t.mu
		return func() { t.sendLoop(s) }
	})
}

// tcpSend is one dialed peer's send state. Its writers — the sender
// goroutine and, on unix, Flush — take turns under mu and pop co.out
// only while holding it, so records go out whole and in seal order.
type tcpSend struct {
	hp string
	co *coalescer
	st *PeerStats

	mu       sync.Mutex
	conn     net.Conn         // nil while the link is down; set under the endpoint's mu too, for Close
	raw      syscall.RawConn  // unix: non-blocking access to conn's descriptor
	put      func(fd uintptr) // unix: the non-blocking write, bound once so a write allocates nothing
	lastDial time.Time
	buf      []byte   // scratch holding one length-prefixed record
	rec      []byte   // the record in progress: the part of buf not yet written
	ob       outBatch // the batch rec carries
	err      error    // unix: put's write error
}

// frame makes b, length-prefixed, the record in progress. It is copied
// behind its prefix so that one write carries both.
func (s *tcpSend) frame(b []byte) {
	s.buf = binary.BigEndian.AppendUint32(s.buf[:0], uint32(len(b)))
	s.buf = append(s.buf, b...)
	s.rec = s.buf
}

// start counts ob as sent and makes it the record in progress. Counting
// precedes the write: the receiver may deliver the batch before the
// write returns.
func (t *TCP) start(s *tcpSend, ob outBatch) {
	t.sending(s.st, ob, tcpFraming)
	s.ob = ob
	s.frame(ob.bytes)
}

// finish concludes the record in progress once it is written or its
// write has failed; a failure also closes the connection, which the
// next batch redials. It reports whether the endpoint has closed.
func (t *TCP) finish(s *tcpSend, err error) (closed bool) {
	closed = t.wrote(s.st, s.ob, tcpFraming, err)
	s.rec, s.ob = nil, outBatch{}
	if err != nil {
		t.disconnect(s)
	}
	return closed
}

// connect opens the outbound connection and introduces this endpoint
// with a hello record; under s.mu.
func (t *TCP) connect(s *tcpSend) error {
	conn, err := net.DialTimeout("tcp", s.hp, tcpDialTimeout)
	if err != nil {
		return err
	}
	tc := conn.(*net.TCPConn)
	// The coalescer is our Nagle; the kernel's would stack a second
	// delay on every partial batch.
	_ = tc.SetNoDelay(true)
	// The drop-oldest queue is the send-side bound: a kernel buffer much
	// larger than it would hold a stalled peer's backlog where no drop
	// can reach it, to be delivered late when the peer reads again.
	_ = tc.SetWriteBuffer(sendQueueCap * DefaultBatchBytes)
	_ = tc.SetReadBuffer(4 << 20)
	s.frame(append(append([]byte(nil), tcpHelloMagic...), []byte(t.LocalAddr())...))
	_, err = conn.Write(s.rec)
	s.rec = nil
	if err != nil {
		conn.Close()
		return err
	}
	s.raw, _ = tc.SyscallConn() // cannot fail for a *net.TCPConn
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.live { // Close has already closed the connections it could see
		conn.Close()
		return net.ErrClosed
	}
	s.conn = conn
	return nil
}

// disconnect closes the outbound connection; under s.mu.
func (t *TCP) disconnect(s *tcpSend) {
	s.conn.Close()
	t.mu.Lock()
	s.conn = nil
	t.mu.Unlock()
}

// sendLoop writes what Flush leaves to it — batches sealed by size or
// count, a record the socket took only in part, anything while the
// link is down — whenever co.ready holds a token, until Close.
func (t *TCP) sendLoop(s *tcpSend) {
	defer t.hangUp(s)
	for {
		select {
		case <-t.done:
			return
		case <-s.co.ready:
		}
		s.mu.Lock()
		closed := t.send(s)
		s.mu.Unlock()
		if closed {
			return
		}
	}
}

// send writes the rest of the record in progress and then every queued
// batch, blocking, connecting as needed; under s.mu. It reports whether
// the endpoint has closed.
func (t *TCP) send(s *tcpSend) (closed bool) {
	if len(s.rec) > 0 {
		_, err := s.conn.Write(s.rec)
		if t.finish(s, err) {
			return true
		}
	}
	for {
		var ob outBatch
		select {
		case ob = <-s.co.out:
		default:
			return false
		}
		if s.conn == nil {
			// Rate-limit reconnects: inside the backoff window the
			// batch is dropped, the queue discipline in miniature.
			if time.Since(s.lastDial) < tcpRedialBackoff {
				t.count(&s.st.Dropped, ob.frames)
				wire.PutBatchWriter(ob.w)
				continue
			}
			s.lastDial = time.Now()
			if err := t.connect(s); err != nil {
				t.sending(s.st, ob, tcpFraming) // a failed connect counts as a failed write
				t.wrote(s.st, ob, tcpFraming, err)
				continue
			}
		}
		t.start(s, ob)
		_, err := s.conn.Write(s.rec)
		if t.finish(s, err) {
			return true
		}
	}
}

// hangUp closes the connection as the sender goroutine exits. A record
// the socket took only in part is lost with it, as a failed write.
func (t *TCP) hangUp(s *tcpSend) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.rec) > 0 {
		t.finish(s, net.ErrClosed)
	} else if s.conn != nil {
		t.disconnect(s)
	}
}

// LocalAddr returns the bound address ("tcp:host:port" with the
// kernel's chosen port after Listen when the configured port was 0).
func (t *TCP) LocalAddr() Addr {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ln != nil {
		return Addr("tcp:" + t.ln.Addr().String())
	}
	return t.addr
}

// Close shuts the listener, every connection, and the per-peer senders
// down and waits for their goroutines.
func (t *TCP) Close() error {
	if !t.shut() {
		return nil
	}
	err := t.ln.Close()
	t.mu.Lock()
	conns := t.conns
	t.conns = nil
	// A sender goroutine blocked on a peer that stopped reading returns
	// once its connection is closed.
	for _, s := range t.sends {
		if s.conn != nil {
			s.conn.Close()
		}
	}
	t.sends = nil
	t.mu.Unlock()
	for _, rc := range conns {
		rc.conn.Close()
	}
	t.wg.Wait()
	return err
}
