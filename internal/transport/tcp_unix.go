//go:build unix

package transport

import (
	"net"
	"syscall"
)

// newRecv sets up an accepted *net.TCPConn (SyscallConn cannot fail).
func (t *TCP) newRecv(conn net.Conn) *tcpRecv {
	rc := &tcpRecv{conn: conn, from: Addr("tcp:" + conn.RemoteAddr().String())}
	rc.raw, _ = conn.(*net.TCPConn).SyscallConn()
	rc.poll = func(fd uintptr) { t.drain(rc, fd) }
	return rc
}

// serve has nothing to start: Recv's poll is a connection's only reader.
func (t *TCP) serve(*tcpRecv) {}

// drain reads what the socket holds without blocking and delivers every
// complete record, under rc.mu, until the socket runs dry or the stream
// ends or corrupts (rc.done).
func (t *TCP) drain(rc *tcpRecv, fd uintptr) {
	for !rc.done {
		n, err := syscall.Read(int(fd), rc.space())
		switch {
		case err == syscall.EINTR:
		case err == syscall.EAGAIN:
			return
		case err != nil || n == 0: // a socket error, or the end of the stream
			rc.done = true
		default:
			rc.done = !t.parse(rc, n)
		}
	}
}

// poll drains every accepted connection no other Recv is draining, and
// drops those whose stream ended or corrupted. Control fails instead of
// calling back once Close has shut a socket, so a poll racing Close
// reads no stale descriptor.
func (t *TCP) poll() {
	t.mu.Lock()
	conns := t.conns
	t.mu.Unlock()
	for _, rc := range conns {
		if !rc.mu.TryLock() {
			continue
		}
		_ = rc.raw.Control(rc.poll)
		done := rc.done
		rc.mu.Unlock()
		if done {
			t.dropConn(rc)
		}
	}
}

// Flush seals every peer's pending batch and writes each peer's queue
// straight to its connection, on the caller's goroutine and without
// blocking. A peer whose sender goroutine is writing or dialing, whose
// link is down, whose write failed or whose socket took a record only
// in part is left to that goroutine, and only then is it woken: when
// batches wait in its queue, or a record's tail does.
func (t *TCP) Flush() {
	t.mu.Lock()
	sends := t.sends
	t.mu.Unlock()
	for _, s := range sends {
		s.co.seal()
		if s.mu.TryLock() {
			tail := t.push(s)
			s.mu.Unlock()
			if tail {
				s.co.kick()
				continue
			}
		}
		if len(s.co.out) > 0 {
			s.co.kick()
		}
	}
}

// push writes the peer's queued batches without blocking, under s.mu,
// until the queue is empty or the goroutine must take over. It reports
// whether a record's tail is left unwritten: the queue may be empty
// then, yet the goroutine must still write it. Once Close has returned
// the sender goroutine has hung up, so a later push writes nothing.
func (t *TCP) push(s *tcpSend) (tail bool) {
	if s.conn == nil || len(s.rec) > 0 {
		return len(s.rec) > 0
	}
	if s.put == nil {
		s.put = s.write
	}
	for {
		select {
		case ob := <-s.co.out:
			t.start(s, ob)
		default:
			return false
		}
		err := s.raw.Control(s.put)
		if err == nil {
			err, s.err = s.err, nil
		}
		switch {
		case err != nil:
			t.finish(s, err)
			return false
		case len(s.rec) > 0: // the socket is full; the tail is the goroutine's
			return true
		}
		t.finish(s, nil)
	}
}

// write is put: it writes the record in progress until it is done or
// the socket is full, without blocking, leaving any error in s.err.
func (s *tcpSend) write(fd uintptr) {
	for len(s.rec) > 0 {
		n, err := syscall.Write(int(fd), s.rec)
		switch {
		case err == syscall.EINTR:
		case err == syscall.EAGAIN:
			return
		case err != nil:
			s.err = err
			return
		default:
			s.rec = s.rec[n:]
		}
	}
}
