package wire

// Replication gossip messages: the payloads of the KindReplicaDigest and
// KindReplicaDelta frame kinds. Like the Figure 5 migration messages they
// are hand-packed big-endian — a digest line is 10 bytes and a delta
// entry is 7 bytes plus the tuple encoding — so gossip overhead stays
// mote-plausible and the energy model charges realistic airtime.

import (
	"fmt"
	"slices"

	"github.com/agilla-go/agilla/internal/replica"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

// replicaDigestFlagReply marks a digest sent in response to another
// digest. A reply digest may be answered with a delta but never with a
// further digest, which is what terminates the exchange.
const replicaDigestFlagReply = 0x01

// replicaDigestLineSize is loc(4) + addMax(2) + remHash(4).
const replicaDigestLineSize = 10

// ReplicaDigest is one anti-entropy digest: the sender's per-origin
// summaries. An empty digest is legal and meaningful — it is how a
// freshly recovered node invites its neighbors to stream state back.
type ReplicaDigest struct {
	Reply bool
	Lines []replica.Summary
}

// Encode packs the digest. Line counts above 255 cannot be represented;
// callers keep deployments far below that.
func (d ReplicaDigest) Encode() []byte {
	n := len(d.Lines)
	if n > 255 {
		n = 255
	}
	out := make([]byte, 2+n*replicaDigestLineSize)
	out[0] = byte(n)
	if d.Reply {
		out[1] = replicaDigestFlagReply
	}
	off := 2
	for _, l := range d.Lines[:n] {
		putLoc(out[off:], l.Node)
		put16(out[off+4:], l.AddMax)
		out[off+6] = byte(l.RemHash >> 24)
		out[off+7] = byte(l.RemHash >> 16)
		out[off+8] = byte(l.RemHash >> 8)
		out[off+9] = byte(l.RemHash)
		off += replicaDigestLineSize
	}
	return out
}

// DecodeReplicaDigest unpacks a digest payload.
func DecodeReplicaDigest(b []byte) (ReplicaDigest, error) {
	return DecodeReplicaDigestInto(nil, b)
}

// DecodeReplicaDigestInto is DecodeReplicaDigest appending the lines to
// dst: the result's Lines share dst's backing array whenever its capacity
// suffices, and are otherwise allocated once, sized from the count byte.
func DecodeReplicaDigestInto(dst []replica.Summary, b []byte) (ReplicaDigest, error) {
	if len(b) < 2 {
		return ReplicaDigest{}, fmt.Errorf("%w: short digest", ErrBadMessage)
	}
	n := int(b[0])
	if len(b) < 2+n*replicaDigestLineSize {
		return ReplicaDigest{}, fmt.Errorf("%w: digest truncated", ErrBadMessage)
	}
	d := ReplicaDigest{Reply: b[1]&replicaDigestFlagReply != 0, Lines: slices.Grow(dst, n)}
	off := 2
	for i := 0; i < n; i++ {
		d.Lines = append(d.Lines, replica.Summary{
			Node:   getLoc(b[off:]),
			AddMax: get16(b[off+4:]),
			RemHash: uint32(b[off+6])<<24 | uint32(b[off+7])<<16 |
				uint32(b[off+8])<<8 | uint32(b[off+9]),
		})
		off += replicaDigestLineSize
	}
	return d, nil
}

// replicaEntryFlagRemoved marks a tombstone; tombstones carry no tuple.
const replicaEntryFlagRemoved = 0x01

// replicaEntryHeaderSize is loc(4) + seq(2) + flags(1).
const replicaEntryHeaderSize = 7

// ReplicaDelta carries the entries a peer's digest showed missing: live
// entries with their tuples, tombstones as bare origins.
type ReplicaDelta struct {
	Entries []replica.Entry
}

// Encode packs the delta. Entry counts above 255 cannot be represented;
// the gossip engine caps deltas far below that per frame.
func (d ReplicaDelta) Encode() []byte {
	n := len(d.Entries)
	if n > 255 {
		n = 255
	}
	size := 1 + n*replicaEntryHeaderSize
	for _, e := range d.Entries[:n] {
		if !e.Removed {
			size += e.Tuple.EncodedSize()
		}
	}
	out := append(make([]byte, 0, size), byte(n))
	for _, e := range d.Entries[:n] {
		var hdr [replicaEntryHeaderSize]byte
		putLoc(hdr[0:], e.Origin.Node)
		put16(hdr[4:], e.Origin.Seq)
		if e.Removed {
			hdr[6] = replicaEntryFlagRemoved
		}
		out = append(out, hdr[:]...)
		if !e.Removed {
			out = e.Tuple.Marshal(out)
		}
	}
	return out
}

// DecodeReplicaDelta unpacks a delta payload.
func DecodeReplicaDelta(b []byte) (ReplicaDelta, error) {
	return DecodeReplicaDeltaInto(nil, b)
}

// DecodeReplicaDeltaInto is DecodeReplicaDelta appending the entries to
// dst: the result's Entries share dst's backing array whenever its
// capacity suffices, and are otherwise allocated once, sized from the
// count byte.
func DecodeReplicaDeltaInto(dst []replica.Entry, b []byte) (ReplicaDelta, error) {
	if len(b) < 1 {
		return ReplicaDelta{}, fmt.Errorf("%w: short delta", ErrBadMessage)
	}
	n := int(b[0])
	// Checked before anything is sized from n: a lone count byte must not
	// buy an allocation.
	if len(b) < 1+n*replicaEntryHeaderSize {
		return ReplicaDelta{}, fmt.Errorf("%w: delta truncated", ErrBadMessage)
	}
	d := ReplicaDelta{Entries: slices.Grow(dst, n)}
	off := 1
	for i := 0; i < n; i++ {
		if len(b) < off+replicaEntryHeaderSize {
			return ReplicaDelta{}, fmt.Errorf("%w: delta truncated", ErrBadMessage)
		}
		e := replica.Entry{
			Origin:  replica.Origin{Node: getLoc(b[off:]), Seq: get16(b[off+4:])},
			Removed: b[off+6]&replicaEntryFlagRemoved != 0,
		}
		off += replicaEntryHeaderSize
		if !e.Removed {
			t, used, err := tuplespace.UnmarshalTuple(b[off:])
			if err != nil {
				return ReplicaDelta{}, fmt.Errorf("%w: delta entry %d: %v", ErrBadMessage, i, err)
			}
			e.Tuple = t
			off += used
		}
		d.Entries = append(d.Entries, e)
	}
	return d, nil
}
