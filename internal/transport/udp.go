package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
)

// The UDP transport: one socket per endpoint, a reader goroutine that
// hands datagrams to deliver, and one sender goroutine per dialed peer
// draining that peer's queue of coalesced batches. UDP is the right
// first wire for this middleware because it has the same failure model
// the radio already has — loss, reordering, duplication — and every
// protocol above (hop-by-hop migration acks, remote-op retransmission,
// anti-entropy gossip) was built to survive exactly that.
//
// One datagram carries one wire.Batch of frames (MTU-bounded by the
// coalescer), amortizing the envelope and the syscall across the batch.
// Anything the decoder rejects increments the sender's malformed counter
// and is otherwise ignored.

// udpReadBuf is sized past any legal batch the coalescer emits and past
// the largest datagram UDP can carry at all.
const udpReadBuf = 1 << 16 * 2

// UDP is a socket-backed Transport. Construct with NewUDP (or Open with a
// "udp:" address).
type UDP struct {
	endpoint
	conn   *net.UDPConn    // set by Listen, under mu
	byWire map[string]Addr // resolved remote addr -> dialed Addr, for attribution; under mu
}

// NewUDP creates an endpoint bound to addr ("udp:host:port") at Listen.
func NewUDP(addr Addr) *UDP {
	return &UDP{endpoint: newEndpoint(addr), byWire: make(map[string]Addr)}
}

// hostPort strips the scheme ("udp:" or "tcp:") from addr.
func hostPort(addr Addr, scheme string) (string, error) {
	s := string(addr)
	if !strings.HasPrefix(s, scheme) {
		return "", fmt.Errorf("transport: %q is not a %s address", addr, strings.TrimSuffix(scheme, ":"))
	}
	return s[len(scheme):], nil
}

// Listen binds the socket and starts the reader.
func (u *UDP) Listen() error {
	hp, err := hostPort(u.addr, "udp:")
	if err != nil {
		return err
	}
	laddr, err := net.ResolveUDPAddr("udp", hp)
	if err != nil {
		return fmt.Errorf("transport: resolve %q: %v", u.addr, err)
	}
	return u.listen(func() error {
		conn, err := net.ListenUDP("udp", laddr)
		if err != nil {
			return fmt.Errorf("transport: listen %q: %v", u.addr, err)
		}
		// Ask for generous socket buffers (the kernel clamps to its limits;
		// best effort): frame bursts — a migration's message train, a gossip
		// round — otherwise overrun the default receive buffer.
		_ = conn.SetReadBuffer(4 << 20)
		_ = conn.SetWriteBuffer(4 << 20)
		u.conn = conn
		u.wg.Add(1)
		go u.readLoop(conn)
		return nil
	})
}

// readLoop delivers datagrams until the socket closes.
func (u *UDP) readLoop(conn *net.UDPConn) {
	defer u.wg.Done()
	buf := make([]byte, udpReadBuf)
	for {
		n, raddr, err := conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		// One copy per datagram: the decoded payloads alias it, and the
		// inbox outlives the read buffer. A malformed datagram is counted
		// and skipped; the next one starts clean.
		u.deliver(u.attribute(raddr), append([]byte(nil), buf[:n]...), 0)
	}
}

// attribute maps a datagram's source address back to the dialed Addr when
// one matches, so send and receive counters share a key.
func (u *UDP) attribute(raddr *net.UDPAddr) Addr {
	s := raddr.String()
	u.mu.Lock()
	defer u.mu.Unlock()
	if a, ok := u.byWire[s]; ok {
		return a
	}
	return Addr("udp:" + s)
}

// Dial resolves the peer, gives it a coalescer, and starts its sender
// goroutine. Idempotent.
func (u *UDP) Dial(addr Addr) error {
	hp, err := hostPort(addr, "udp:")
	if err != nil {
		return err
	}
	raddr, err := net.ResolveUDPAddr("udp", hp)
	if err != nil {
		return fmt.Errorf("transport: resolve peer %q: %v", addr, err)
	}
	err = u.dial(addr, func(co *coalescer, st *PeerStats) { u.sendLoop(raddr, co, st) })
	if err != nil {
		return err
	}
	u.mu.Lock()
	u.byWire[raddr.String()] = addr
	u.mu.Unlock()
	return nil
}

// sendLoop writes one peer's sealed batches onto the socket until Close.
func (u *UDP) sendLoop(raddr *net.UDPAddr, co *coalescer, st *PeerStats) {
	for {
		select {
		case <-u.done:
			return
		case ob := <-co.out:
			_, err := u.conn.WriteToUDP(ob.bytes, raddr)
			if closed := u.wrote(st, ob, 0, err); err != nil && (closed || errors.Is(err, net.ErrClosed)) {
				return
			}
		}
	}
}

// LocalAddr returns the bound address ("udp:host:port" with the kernel's
// chosen port after Listen when the configured port was 0).
func (u *UDP) LocalAddr() Addr {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.conn != nil {
		return Addr("udp:" + u.conn.LocalAddr().String())
	}
	return u.addr
}

// Close shuts the socket and the per-peer senders down and waits for
// their goroutines.
func (u *UDP) Close() error {
	if !u.shut() {
		return nil
	}
	err := u.conn.Close()
	u.wg.Wait()
	return err
}
