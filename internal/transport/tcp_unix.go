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

// drain reads what the socket holds without blocking and delivers every
// complete record, under rc.mu. It reports whether the socket ran dry
// with the stream open; if not, the stream ended or corrupted: rc.done.
func (t *TCP) drain(rc *tcpRecv, fd uintptr) (dry bool) {
	for !rc.done {
		n, err := syscall.Read(int(fd), rc.space())
		switch {
		case err == syscall.EINTR:
		case err == syscall.EAGAIN:
			return true
		case err != nil || n == 0: // a socket error, or the end of the stream
			rc.done = true
		default:
			rc.done = !t.parse(rc, n)
		}
	}
	return false
}

// readLoop drains the connection whenever the poller finds it readable,
// until it is done or closed (Read's only error). Bytes a Recv drain took arrived after this
// loop's last empty read, so their arrival wakes it all the same.
func (t *TCP) readLoop(rc *tcpRecv) {
	defer t.wg.Done()
	defer t.dropConn(rc)
	_ = rc.raw.Read(func(fd uintptr) bool {
		rc.mu.Lock()
		defer rc.mu.Unlock()
		return !t.drain(rc, fd)
	})
}

// poll drains every accepted connection no one else is draining. Control
// fails instead of calling back once Close has shut a socket, so a poll
// racing Close reads no stale descriptor.
func (t *TCP) poll() {
	t.mu.Lock()
	conns := t.conns
	t.mu.Unlock()
	for _, rc := range conns {
		if rc.mu.TryLock() {
			_ = rc.raw.Control(rc.poll)
			rc.mu.Unlock()
		}
	}
}
