package transport

import (
	"fmt"
	"strings"
	"sync"

	"github.com/agilla-go/agilla/internal/wire"
)

// The loopback transport: a process-global registry of named endpoints.
// Send encodes the frame through the real batch codec and hands the
// bytes to the destination's deliver — so the wire format and the
// receive path are exercised end to end, but delivery has no goroutines,
// no sockets, and no clocks. A single-threaded driver that alternates
// send/pump between two endpoints gets fully reproducible delivery, which
// is what makes Loopback the oracle-adjacent path of the conformance
// suite: any disagreement with the in-process run is a bridge or protocol
// bug, not scheduling noise.

var (
	loopMu  sync.Mutex
	loopReg = map[Addr]*Loopback{}
)

// Loopback is an in-memory Transport endpoint. Construct with NewLoopback
// (or Open with a "loop:" address); the endpoint joins the registry at
// Listen and leaves it at Close.
type Loopback struct {
	endpoint
}

// NewLoopback creates an endpoint named by addr ("loop:name").
func NewLoopback(addr Addr) *Loopback {
	return &Loopback{endpoint: newEndpoint(addr)}
}

// Listen registers the endpoint in the process-global registry.
func (l *Loopback) Listen() error {
	return l.listen(func() error {
		loopMu.Lock()
		defer loopMu.Unlock()
		if _, ok := loopReg[l.addr]; ok {
			return fmt.Errorf("transport: loopback endpoint %q already registered", l.addr)
		}
		loopReg[l.addr] = l
		return nil
	})
}

// Dial only validates the scheme: Loopback resolves peers in the
// registry at send time and has nothing to coalesce for them.
func (l *Loopback) Dial(addr Addr) error {
	if !strings.HasPrefix(string(addr), "loop:") || len(addr) == len("loop:") {
		return fmt.Errorf("transport: loopback cannot dial %q", addr)
	}
	return nil
}

// Send encodes f as a batch of one — the same container the wire
// transports coalesce into — and delivers it into the destination
// endpoint's inbox before returning: loopback delivery is synchronous by
// design, which is what keeps it deterministic. An unregistered
// destination is an error (the peer process has not started or already
// closed).
func (l *Loopback) Send(addr Addr, f wire.Frame) error {
	b, err := wire.EncodeBatch([]wire.Frame{f})
	if err != nil {
		return err
	}
	loopMu.Lock()
	dst := loopReg[addr]
	loopMu.Unlock()
	l.mu.Lock()
	if !l.live {
		l.mu.Unlock()
		return fmt.Errorf("transport: %q is closed", l.addr)
	}
	st := l.peerStats(addr)
	st.Sent++
	st.SentBytes += uint64(len(b))
	st.Batches++
	if dst == nil {
		st.SendErrs++
	}
	l.mu.Unlock()
	if dst == nil {
		return fmt.Errorf("transport: no loopback endpoint %q", addr)
	}
	dst.deliver(l.addr, b, 0)
	return nil
}

// Close removes the endpoint from the registry and drops queued frames.
func (l *Loopback) Close() error {
	loopMu.Lock()
	if loopReg[l.addr] == l {
		delete(loopReg, l.addr)
	}
	loopMu.Unlock()
	l.shut()
	return nil
}
