//go:build !unix

package transport

import "net"

// newRecv sets up an accepted connection. Without non-blocking reads
// its reader goroutine alone reads it, and poll has nothing to do.
func (t *TCP) newRecv(conn net.Conn) *tcpRecv {
	return &tcpRecv{conn: conn, from: Addr("tcp:" + conn.RemoteAddr().String())}
}

func (t *TCP) poll() {}

// serve starts a registered connection's reader goroutine.
func (t *TCP) serve(rc *tcpRecv) {
	t.wg.Add(1)
	go t.readLoop(rc)
}

// readLoop feeds the record parser with blocking reads until the stream
// ends or corrupts.
func (t *TCP) readLoop(rc *tcpRecv) {
	defer t.wg.Done()
	defer t.dropConn(rc)
	for {
		n, err := rc.conn.Read(rc.space())
		if n > 0 && !t.parse(rc, n) || err != nil {
			return
		}
	}
}
