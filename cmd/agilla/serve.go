package main

// The serve subcommand: run one process's share of a field split across
// several processes (the real-wire distributed runtime). Every process is
// given the SAME topology and seed; -peer flags carve out the locations
// other processes own, and the transport bridge relays border frames over
// UDP or TCP (or the in-memory loopback, for single-process
// experiments). Outbound border frames are coalesced into batches on the
// wire; each status line reports the batching payoff and any frames lost
// to send-queue backpressure.
//
// A two-terminal split of the 6x4 grid down the middle:
//
//	agilla serve -listen udp:127.0.0.1:7001 \
//	    -peer udp:127.0.0.1:7002=4-6,1-4+100,100 \
//	    -topo grid -width 6 -height 4 -seed 11 \
//	    -inject examples/agents/blink.agilla -at 6,4
//
//	agilla serve -listen udp:127.0.0.1:7002 \
//	    -peer udp:127.0.0.1:7001=1-3,1-4+0,0 \
//	    -topo grid -width 6 -height 4 -seed 11 -base 100,100
//
// The first terminal keeps the default base station at (0,0) and owns
// columns 1-3; the second relocates its base off-field to (100,100) and
// owns columns 4-6. Each -peer lists what the OTHER process serves —
// its motes and its base location — so frames addressed there cross the
// wire. Status lines name frame kinds (beacon, migrate, remote-ts, ...)
// rather than raw codes.

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/agilla-go/agilla"
)

// peerFlag accumulates repeated -peer specs.
type peerFlag []agilla.BridgePeer

func (p *peerFlag) String() string { return fmt.Sprint(*p) }

func (p *peerFlag) Set(s string) error {
	peer, err := parsePeer(s)
	if err != nil {
		return err
	}
	*p = append(*p, peer)
	return nil
}

// parsePeer parses "addr=locs" where locs is a +-separated list of
// location ranges: "4-6,1-4" is the rectangle x in 4..6, y in 1..4, and
// "100,100" is the single location (100,100).
func parsePeer(s string) (agilla.BridgePeer, error) {
	addr, locs, ok := strings.Cut(s, "=")
	if !ok || addr == "" || locs == "" {
		return agilla.BridgePeer{}, fmt.Errorf("-peer: want addr=xrange,yrange[+...] — got %q", s)
	}
	peer := agilla.BridgePeer{Addr: addr}
	for _, elem := range strings.Split(locs, "+") {
		parts := strings.Split(elem, ",")
		if len(parts) != 2 {
			return agilla.BridgePeer{}, fmt.Errorf("-peer: range %q: want xrange,yrange", elem)
		}
		x1, x2, err := parseSpan(parts[0])
		if err != nil {
			return agilla.BridgePeer{}, fmt.Errorf("-peer: range %q: %w", elem, err)
		}
		y1, y2, err := parseSpan(parts[1])
		if err != nil {
			return agilla.BridgePeer{}, fmt.Errorf("-peer: range %q: %w", elem, err)
		}
		for y := y1; y <= y2; y++ {
			for x := x1; x <= x2; x++ {
				peer.Locations = append(peer.Locations, agilla.Loc(int16(x), int16(y)))
			}
		}
	}
	return peer, nil
}

// parseSpan parses "4" or "4-6" into an inclusive span.
func parseSpan(s string) (lo, hi int, err error) {
	a, b, ranged := strings.Cut(strings.TrimSpace(s), "-")
	if lo, err = parseCoord(a); err != nil {
		return 0, 0, err
	}
	if !ranged {
		return lo, lo, nil
	}
	if hi, err = parseCoord(b); err != nil {
		return 0, 0, err
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("span %q is backwards", s)
	}
	return lo, hi, nil
}

// wireSummary renders the transport-level counters across all peers for
// a status line: throughput, coalescing payoff, and — most importantly —
// frames lost to backpressure at either queue (drop-oldest on the send
// side, inbox overrun on the receive side), which the border counters
// alone cannot show.
func wireSummary(peers map[string]agilla.TransportPeerStats) string {
	var sum agilla.TransportPeerStats
	for _, st := range peers {
		sum.Sent += st.Sent
		sum.SentBytes += st.SentBytes
		sum.Batches += st.Batches
		sum.Dropped += st.Dropped
		sum.Recv += st.Recv
		sum.Overrun += st.Overrun
		sum.Malformed += st.Malformed
		sum.SendErrs += st.SendErrs
	}
	s := fmt.Sprintf("sent %d in %d batches (%.1f frames/batch), recv %d",
		sum.Sent, sum.Batches, sum.FramesPerBatch(), sum.Recv)
	if sum.Dropped > 0 {
		s += fmt.Sprintf(", DROPPED %d (send-queue overflow)", sum.Dropped)
	}
	if sum.Overrun > 0 {
		s += fmt.Sprintf(", OVERRUN %d (inbox overflow: pump falling behind)", sum.Overrun)
	}
	if sum.Malformed > 0 {
		s += fmt.Sprintf(", malformed %d", sum.Malformed)
	}
	if sum.SendErrs > 0 {
		s += fmt.Sprintf(", send errors %d", sum.SendErrs)
	}
	return s
}

func runServe(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("agilla serve", flag.ContinueOnError)
	var peers peerFlag
	deploy := addDeployFlags(fs, " (identical in every process)")
	var (
		listen  = fs.String("listen", "udp:127.0.0.1:7001", "this process's transport address (udp:host:port, tcp:host:port, or loop:name)")
		base    = fs.String("base", "", "relocate this process's base station, e.g. 100,100 (required when a peer owns 0,0)")
		quantum = fs.Duration("quantum", 0, "virtual time between border pumps (default 5ms)")
		runFor  = fs.Duration("run", 0, "virtual time to serve before dumping state (0 = forever)")
		status  = fs.Duration("status", 10*time.Second, "virtual time between status lines")
		inject  = fs.String("inject", "", "agent program file to inject after warm-up")
		at      = fs.String("at", "", "destination node for -inject, e.g. 6,4 (may be peer-owned)")
		watch   = fs.Bool("watch", false, "print middleware events as they happen")
	)
	fs.Var(&peers, "peer", "peer process: addr=locranges, e.g. udp:host:7002=4-6,1-4+100,100 (repeatable)")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	// The status loop steps virtual time by -status, so only a positive
	// one ever advances; checked before anything opens a socket.
	if *status <= 0 {
		return fmt.Errorf("-status: must be positive, got %v", *status)
	}
	if *runFor < 0 {
		return fmt.Errorf("-run: negative duration %v (0 serves forever)", *runFor)
	}
	if len(peers) == 0 {
		return fmt.Errorf("serve needs at least one -peer")
	}

	opts, err := deploy.options()
	if err != nil {
		return err
	}
	cfg := agilla.BridgeConfig{Listen: *listen, Peers: peers, Quantum: *quantum}
	if *base != "" {
		loc, err := parseLoc(*base)
		if err != nil {
			return fmt.Errorf("-base: %w", err)
		}
		cfg.BaseLoc = &loc
	}
	nw, err := agilla.New(append(opts, agilla.WithTransportBridge(cfg))...)
	if err != nil {
		return err
	}
	br := nw.Bridge()
	fmt.Printf("serving %d motes of %s (seed %d) on %s, %d peer(s)\n",
		len(nw.Locations()), nw.Topology(), *deploy.seed, br.LocalAddr(), len(peers))
	fmt.Printf("local motes: %v\n", nw.Locations())

	finishWatch := func() {}
	if *watch {
		finishWatch = attachWatch(nw)
	}
	defer finishWatch()

	fmt.Println("warming up (cross-border beacons need the peers running)...")
	if err := nw.WarmUp(); err != nil {
		return err
	}

	if *inject != "" {
		// serve has always announced the bare program summary, unnamed.
		if _, err := injectFile(nw, *inject, "", *at); err != nil {
			return err
		}
	}

	for elapsed := time.Duration(0); *runFor <= 0 || elapsed < *runFor; {
		step := *status
		if *runFor > 0 && elapsed+step > *runFor {
			step = *runFor - elapsed
		}
		if err := nw.Run(step); err != nil {
			return err
		}
		elapsed += step
		fmt.Printf("t=%-8v agents=%-3d border: %v; wire: %s\n",
			nw.Now(), nw.TotalAgents(), br.Stats(), wireSummary(br.TransportStats()))
	}

	dumpState(nw, "local", nw.Locations(), false)
	return br.Close()
}
