//go:build unix

package transport

import (
	"encoding/binary"
	"net"
	"testing"

	"github.com/agilla-go/agilla/internal/wire"
)

// TestTCPDrainReassembles runs drain on an accepted connection that has
// no reader goroutine: a hello and three batch records — the last one
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
			rc := tr.newRecv(server) // not registered: no reader, no Recv poll
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
