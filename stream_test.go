package agilla

import (
	"runtime"
	"testing"
	"time"
)

// TestStreamReleasesDelivered: once the subscriber has read an item, the
// stream must not keep it reachable (an Event drags its Tuple and Err
// along).
func TestStreamReleasesDelivered(t *testing.T) {
	s := newStream[*[64]byte]()
	defer s.close()
	const n = 3
	freed := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		v := new([64]byte)
		runtime.SetFinalizer(v, func(*[64]byte) { freed <- struct{}{} })
		s.push(v)
	}
	for i := 0; i < n; i++ {
		<-s.out
	}
	deadline := time.After(5 * time.Second)
	for got := 0; got < n; {
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("%d of %d delivered items still reachable from the stream", n-got, n)
		}
	}
}
