package wire

import "github.com/agilla-go/agilla/internal/topology"

// MaxFramePayload is the largest payload a frame record's 16-bit length
// field can carry. Radio payloads are mote-sized (tens of bytes); the
// bound exists so a decoder can reject absurd lengths before allocating.
const MaxFramePayload = 1<<16 - 1

// Frame is the neutral form of one over-the-air message as it crosses a
// transport: the radio frame fields without the radio package. The bridge
// converts to and from radio.Frame at the medium boundary; on the wire a
// frame is one record of a Batch (batch.go), the only envelope. The
// payload stays opaque at this layer — inner codecs already reject
// garbage with ErrBadMessage, and keeping the envelope payload-agnostic
// means new frame kinds need no envelope change.
type Frame struct {
	Kind    uint8
	Src     topology.Location
	Dst     topology.Location
	Payload []byte
}
