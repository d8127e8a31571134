// Ringrelay deploys Agilla on a non-grid topology: twelve motes on a
// ring, built with the composable topology API. A courier agent is
// injected at the first ring mote and circumnavigates the ring by
// strong-moving between quarter-point waypoints — every leg is a real
// multi-hop migration relayed mote to mote along the arc by greedy
// geographic routing. Its handle observes the walk — current location,
// hop count, completion — without any hand-rolled polling.
//
//	go run ./examples/ringrelay
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/program"
)

const ringSize = 12

func main() {
	// A ring exercises protocol behavior a grid never shows: every mote
	// has exactly two neighbors, so routing is forced along the arc.
	nw, err := agilla.New(
		agilla.WithTopology(agilla.Ring(ringSize)),
		agilla.WithSeed(4),
		agilla.WithReliableRadio(),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := nw.WarmUp(); err != nil {
		log.Fatal(err)
	}

	// Locations() preserves ring order, so quarter points are simple
	// index arithmetic. The courier stamps each waypoint with <"vst">
	// and strong-moves to the next; intermediate motes relay the agent
	// hop by hop without executing it.
	ring := nw.Locations()
	start := ring[0]
	waypoints := []agilla.Location{ring[3], ring[6], ring[9], ring[0]}

	var prog strings.Builder
	stamp := "pushn vst\nloc\npushc 2\nout\n"
	prog.WriteString(stamp)
	for _, wp := range waypoints {
		fmt.Fprintf(&prog, "pushloc %d %d\nsmove\n", wp.X, wp.Y)
		prog.WriteString(stamp)
	}
	prog.WriteString("halt\n")

	courier, err := program.Parse(prog.String())
	if err != nil {
		log.Fatal(err)
	}
	ag, err := nw.Launch(courier, start)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("courier %d injected at %v on a %s\n", ag.ID(), start, nw.Topology())

	// Observe completion through the handle: the walk is done when the
	// courier halts back at its starting mote.
	done, err := ag.WaitDone(5 * time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	if !done {
		log.Fatalf("courier never finished: %v", ag)
	}

	stamped := 0
	visited := agilla.Tmpl(agilla.Str("vst"), agilla.TypeV(3)) // <"vst", any location>
	for _, loc := range ring {
		if nw.Space(loc).Count(visited) > 0 {
			stamped++
		}
	}
	fmt.Printf("courier finished at %v after %d hops (ring circumference %d); %d waypoints stamped\n",
		ag.Location(), ag.Hops(), ringSize, stamped)
}
