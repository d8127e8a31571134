package agilla

// RemoteClient: the host-facing client for over-the-air remote tuple
// space operations. The paper's base station is "a Java application that
// allows a user to interact with the WSN by injecting agents and
// performing remote tuple space operations" (§3.1); RemoteClient is that
// second half, exposing all three wire operations plus a network-wide
// query built from them.

import (
	"errors"
	"fmt"
	"time"

	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/wire"
)

// RemoteClient performs remote tuple space operations from the base
// station, over the simulated radio with the real end-to-end protocol:
// one-message requests, unacknowledged replies, initiator timeout and
// retransmission (§3.2). Each call runs the simulation until its reply
// arrives or the retransmission budget — derived from the base station's
// NodeConfig — is exhausted, which surfaces as an error wrapping
// ErrRemoteTimeout.
//
// Contrast with Space, whose operations execute directly on the host:
// RemoteClient operations cost virtual time, can be lost, and exercise
// routing — they are the real protocol.
type RemoteClient struct {
	nw *Network
}

// Remote returns the base station's remote-operation client.
func (nw *Network) Remote() *RemoteClient { return &RemoteClient{nw: nw} }

// opDeadline bounds how long one remote operation can take to resolve:
// the initiator's full retransmission budget plus slack for reply
// delivery latency.
func (rc *RemoteClient) opDeadline() time.Duration {
	return core.RemoteOpBudget(rc.nw.d.Base.Config()) + time.Second
}

// do ships one remote operation from the base station and runs the
// simulation until it resolves.
func (rc *RemoteClient) do(op wire.RemoteOp, dest Location, t Tuple, p Template) (wire.RemoteReply, error) {
	if rc.nw.d.Node(dest) == nil && !rc.nw.bridgeOwns(dest) {
		return wire.RemoteReply{}, fmt.Errorf("%w at %v", ErrNoSuchNode, dest)
	}
	var reply *wire.RemoteReply
	var opErr error
	rc.nw.d.Base.RemoteOp(op, dest, t, p, func(r wire.RemoteReply, err error) {
		r.Tuple = ownTuple(r.Tuple) // the reply's tuple is valid only during the callback
		reply, opErr = &r, err
	})
	// The remote manager resolves (reply or timeout failure) within the
	// budget; the slack covers reply-delivery event latency. On a bridged
	// network the run is pumped every quantum so the request, its
	// cross-border hops, and the reply all cross the wire.
	deadline := rc.nw.d.Sim.Now() + rc.opDeadline()
	if _, err := rc.nw.runUntilAt(func() bool { return reply != nil }, deadline); err != nil {
		return wire.RemoteReply{}, err
	}
	if reply == nil || errors.Is(opErr, core.ErrRemoteTimeout) {
		return wire.RemoteReply{}, fmt.Errorf("agilla: %v to %v: %w", op, dest, ErrRemoteTimeout)
	}
	if opErr != nil {
		return wire.RemoteReply{}, opErr
	}
	return *reply, nil
}

// Rout inserts a tuple into the space at dest over the air. A nil error
// means the responder confirmed the insertion; a full arena at the
// destination is reported as an error.
func (rc *RemoteClient) Rout(dest Location, t Tuple) error {
	reply, err := rc.do(wire.OpRout, dest, t, Template{})
	if err != nil {
		return err
	}
	if !reply.OK {
		return fmt.Errorf("agilla: rout to %v rejected (tuple space full)", dest)
	}
	return nil
}

// Rinp removes and returns the first tuple at dest matching the
// template. ok=false with a nil error means the operation executed and
// found no match; an error wrapping ErrRemoteTimeout means it may not
// have executed at all.
func (rc *RemoteClient) Rinp(dest Location, p Template) (Tuple, bool, error) {
	reply, err := rc.do(wire.OpRinp, dest, Tuple{}, p)
	if err != nil {
		return Tuple{}, false, err
	}
	return reply.Tuple, reply.OK, nil
}

// Rrdp copies the first tuple at dest matching the template without
// removing it. Result semantics are as for Rinp.
func (rc *RemoteClient) Rrdp(dest Location, p Template) (Tuple, bool, error) {
	reply, err := rc.do(wire.OpRrdp, dest, Tuple{}, p)
	if err != nil {
		return Tuple{}, false, err
	}
	return reply.Tuple, reply.OK, nil
}

// Match is one Query result: a matching tuple and the mote holding it.
type Match struct {
	Node  Location
	Tuple Tuple
}

// Query performs a network-wide rrdp: the request fans out to every mote
// concurrently (each with its own request ID, timeout, and
// retransmissions) and the replies are gathered into at most one Match
// per mote, in deployment order. Motes with no matching tuple — and
// motes whose operation timed out, indistinguishable end to end from
// no-match by design (§2.2) — simply contribute nothing. The error is
// non-nil only if the simulation itself fails.
func (rc *RemoteClient) Query(p Template) ([]Match, error) {
	locs := rc.nw.Locations()
	byLoc := make(map[Location]tuplespace.Tuple, len(locs))
	remaining := len(locs)
	for _, loc := range locs {
		loc := loc
		rc.nw.d.Base.RemoteOp(wire.OpRrdp, loc, Tuple{}, p, func(r wire.RemoteReply, err error) {
			remaining--
			if err == nil && r.OK {
				byLoc[loc] = ownTuple(r.Tuple)
			}
		})
	}
	deadline := rc.nw.d.Sim.Now() + rc.opDeadline()
	if _, err := rc.nw.runUntilAt(func() bool { return remaining == 0 }, deadline); err != nil {
		return nil, err
	}
	matches := make([]Match, 0, len(byLoc))
	for _, loc := range locs {
		if t, ok := byLoc[loc]; ok {
			matches = append(matches, Match{Node: loc, Tuple: t})
		}
	}
	return matches, nil
}
