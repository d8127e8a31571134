package main

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/sensor"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/wire"
)

// seededField is the temperature every sense instruction reads: a pure
// function of place, time and the workload seed, so readings are inputs
// the seed generates. samples, when non-nil, counts sense operations
// from outside the sensor layer (traced run only).
func seededField(seed int64, samples *atomic.Uint64) sensor.Field {
	return sensor.FieldFunc(func(loc topology.Location, _ tuplespace.SensorType, now time.Duration) int16 {
		if samples != nil {
			samples.Add(1)
		}
		v := uint64(seed) + uint64(uint16(loc.X))*31 + uint64(uint16(loc.Y))*17 + uint64(now/time.Second)
		return int16(20 + v%64)
	})
}

// field attaches the seeded sensor field to a spec, counting samples in
// the traced run.
func (t *trial) field() sensor.Field {
	if t.o.tr == nil {
		return seededField(t.o.seed, nil)
	}
	return seededField(t.o.seed, &t.samples)
}

// start begins beaconing, on the set-up clock.
func (t *trial) start(d *core.Deployment) {
	_ = t.timed(&t.warmD, "core.Start", func() error { d.Start(); return nil }) // the closure cannot fail
}

// warmTo finishes set-up: run the warm-up span and record the state hash
// the variant checks compare.
func (t *trial) warmTo(d *core.Deployment, span time.Duration) error {
	err := t.timed(&t.warmD, "sim.Run(warm-up)", func() error {
		return d.Sim.Run(d.Sim.Now() + span)
	})
	if err != nil {
		return err
	}
	t.warmHash = stateHash(d)
	return nil
}

// scoreAgents sets ok_frac for workloads whose only modelled operation
// is keeping their agents alive.
func (t *trial) scoreAgents(d *core.Deployment, agents int) {
	t.ops = uint64(agents)
	t.opsFailed = d.TotalStats().AgentsDied
}

// --- field-40k ----------------------------------------------------------

// fieldTrial: a 200×200 grid, one agents.Monitor(2) per mote, lossy
// radio. Kernel heap, periodic beacon timers and broadcast delivery do
// nearly all the work; the field is large enough that the event heap no
// longer fits the caches.
func fieldTrial(o opts) (*trial, error) {
	g, warm, span, slices := 200, time.Second, 3*time.Second, 100
	if o.smoke {
		g, warm, span, slices = 12, 250*time.Millisecond, time.Second, 10
	}
	t := newTrial(o)
	d, err := t.deploy(core.DeploymentSpec{Layout: topology.GridLayout(g, g), Field: t.field()})
	if err != nil {
		return nil, err
	}
	code := agents.Monitor(2)
	err = t.timed(&t.populateD, "populate", func() error {
		for _, n := range d.Motes() {
			if err := t.createAgent(n, code); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.start(d)
	if err := t.warmTo(d, warm); err != nil || o.prefix {
		return t, err
	}
	if err := t.runSlices(d, span, slices); err != nil {
		return nil, err
	}
	t.scoreAgents(d, g*g)
	t.finishSim(d)
	return t, nil
}

// --- vm-compute ---------------------------------------------------------

// Four compute agents share every mote: two straight-line ALU loops the
// burst engine absorbs whole (the body unrolled so a plan is some forty
// instructions between jumps), and two branchy loops over heap variables
// that break plans every few instructions. None sleeps, migrates or
// touches the tuple space.
var computeSrcs = []string{
	"LOOP " + strings.Repeat(`pushc 1
	      pushc 2
	      add
	      pushc 3
	      sub
	      pushc 9
	      and
	      inc
	      pop
	`, 4) + "rjump LOOP",
	"LOOP " + strings.Repeat(`pushcl 300
	      dup
	      add
	      pushc 7
	      or
	      not
	      pushc 5
	      swap
	      sub
	      pop
	`, 4) + "rjump LOOP",
	`      pushc 0
	      setvar 0
	LOOP  getvar 0
	      inc
	      setvar 0
	      getvar 0
	      pushc 100
	      ceq
	      rjumpc ZERO
	      rjump LOOP
	ZERO  pushc 0
	      setvar 0
	      rjump LOOP`,
	`      pushc 1
	      setvar 1
	LOOP  getvar 1
	      getvar 1
	      add
	      setvar 1
	      getvar 1
	      pushcl 4096
	      clt
	      rjumpc HALVE
	      rjump LOOP
	HALVE pushc 1
	      setvar 1
	      rjump LOOP`,
}

func vmTrial(o opts) (*trial, error) {
	g, warm, span, slices := 10, 2*time.Second, 48*time.Second, 120
	if o.smoke {
		g, warm, span, slices = 3, 250*time.Millisecond, 2*time.Second, 10
	}
	t := newTrial(o)
	d, err := t.deploy(core.DeploymentSpec{Layout: topology.GridLayout(g, g)})
	if err != nil {
		return nil, err
	}
	err = t.timed(&t.populateD, "populate", func() error {
		for _, src := range computeSrcs {
			code, err := asm.Assemble(src)
			if err != nil {
				return fmt.Errorf("compute agent: %w", err)
			}
			for _, n := range d.Motes() {
				if err := t.createAgent(n, code); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.start(d)
	if err := t.warmTo(d, warm); err != nil || o.prefix {
		return t, err
	}
	if err := t.runSlices(d, span, slices); err != nil {
		return nil, err
	}
	t.scoreAgents(d, g*g*len(computeSrcs))
	t.finishSim(d)
	return t, nil
}

// --- agents-lossy -------------------------------------------------------

// The paper's own traffic. A wanderer strong-moves to a random neighbour,
// stamps the mote, consumes one stamp and naps half a second. A reporter
// senses and routs the reading to its block's hub every second. A
// collector on each hub blocks on in <"rpt", reading>.
const wandererSrc = `
	LOOP  randnbr
	      rjumpc GO
	      pop
	      rjump NAP
	GO    smove
	      pushn vst
	      loc
	      pushc 2
	      out
	      pushn vst
	      pusht LOCATION
	      pushc 2
	      inp
	      rjumpc DROP
	      rjump NAP
	DROP  pop
	      pop
	      pop
	NAP   pushc 4
	      sleep
	      rjump LOOP`

const collectorSrc = `
	LOOP  pushn rpt
	      pusht READING
	      pushc 2
	      in
	      pop
	      pop
	      pop
	      rjump LOOP`

func reporterSrc(hub topology.Location) string {
	return fmt.Sprintf(`
	LOOP  pushn rpt
	      pushc TEMPERATURE
	      sense
	      pushc 2
	      pushloc %d %d
	      rout
	      pushc 8
	      sleep
	      rjump LOOP`, hub.X, hub.Y)
}

// hubBlock is the side of the square block of motes one hub serves: a
// reporter is at most 4 routed hops from the hub at its block's centre.
const hubBlock = 5

// hubOf returns the hub serving loc on a w×h grid: the centre of its
// block, clamped into the grid for ragged edge blocks.
func hubOf(loc topology.Location, w, h int) topology.Location {
	centre := func(v int16, max int) int16 {
		c := (v-1)/hubBlock*hubBlock + hubBlock/2 + 1
		if int(c) > max {
			c = int16(max)
		}
		return c
	}
	return topology.Loc(centre(loc.X, w), centre(loc.Y, h))
}

// populateAgents places the agents-lossy population on the motes of d,
// which may be one half of a w×h field. hubFor maps a reporter's mote to
// the hub it reports to.
func (t *trial) populateAgents(d *core.Deployment, w, h int, hubFor func(topology.Location) topology.Location) error {
	wanderer, err := asm.Assemble(wandererSrc)
	if err != nil {
		return fmt.Errorf("wanderer: %w", err)
	}
	collector, err := asm.Assemble(collectorSrc)
	if err != nil {
		return fmt.Errorf("collector: %w", err)
	}
	reporters := make(map[topology.Location][]byte)
	for _, n := range d.Motes() {
		loc := n.Loc()
		// Index by position on the whole field so a split field carries
		// the population of the unsplit one.
		i := (int(loc.Y)-1)*w + int(loc.X) - 1
		if loc == hubOf(loc, w, h) {
			if err := t.createAgent(n, collector); err != nil {
				return err
			}
		}
		if i%2 == 0 {
			if err := t.createAgent(n, wanderer); err != nil {
				return err
			}
		}
		if i%4 == 1 {
			hub := hubFor(loc)
			code := reporters[hub]
			if code == nil {
				if code, err = asm.Assemble(reporterSrc(hub)); err != nil {
					return fmt.Errorf("reporter: %w", err)
				}
				reporters[hub] = code
			}
			if err := t.createAgent(n, code); err != nil {
				return err
			}
		}
	}
	return nil
}

// scoreProtocols sets ok_frac from the migration hops and remote
// operations the hooks saw conclude.
func (t *trial) scoreProtocols() {
	okN := t.h.migOK.Load() + t.h.remoteOK.Load()
	fail := t.h.migFail.Load() + t.h.remoteFail.Load()
	t.ops += okN + fail
	t.opsFailed += fail
}

func agentsTrial(o opts) (*trial, error) {
	g, settle, span, slices := 40, 5*time.Second, 50*time.Second, 100
	if o.smoke {
		g, settle, span, slices = 10, time.Second, 5*time.Second, 10
	}
	t := newTrial(o)
	d, err := t.deploy(core.DeploymentSpec{Layout: topology.GridLayout(g, g), Field: t.field()})
	if err != nil {
		return nil, err
	}
	// Acquaintance lists must be full before agents ask for neighbours.
	if err := t.timed(&t.warmD, "core.WarmUp", d.WarmUp); err != nil {
		return nil, err
	}
	err = t.timed(&t.populateD, "populate", func() error {
		return t.populateAgents(d, g, g, func(l topology.Location) topology.Location { return hubOf(l, g, g) })
	})
	if err != nil {
		return nil, err
	}
	if err := t.warmTo(d, settle); err != nil {
		return nil, err
	}
	if err := t.runSlices(d, span, slices); err != nil {
		return nil, err
	}
	t.scoreProtocols()
	t.finishSim(d)
	return t, nil
}

// --- churn-repl ---------------------------------------------------------

func marker(idx int) tuplespace.Tuple {
	return tuplespace.T(tuplespace.Str("sv"), tuplespace.Int(int16(idx)))
}

func markerTemplate(idx int) tuplespace.Template {
	return tuplespace.Tmpl(tuplespace.Str("sv"), tuplespace.Int(int16(idx)))
}

// markerReadable reports whether any live mote can produce the marker,
// from its arena or its replica store — the sources a remote rrdp reads.
func markerReadable(d *core.Deployment, idx int) bool {
	p := markerTemplate(idx)
	for _, n := range d.Motes() {
		if n.Life() != core.NodeUp {
			continue
		}
		if _, ok := n.Space().Rdp(p); ok {
			return true
		}
		for _, e := range n.ReplicaLive() {
			if p.Matches(e.Tuple) {
				return true
			}
		}
	}
	return false
}

// churnTrial follows experiments.churnRun: energy model and replication
// on, a diagonal band of motes killed at T/2 and every other one revived
// at 3T/4, one mote moved off the grid and back, a marker tuple per mote
// published at t=0, base-station rrdp probes for the dead motes' markers
// mid-outage, a commuter agent crossing the band, and a battery sized so
// the hottest motes exhaust before the end.
func churnTrial(o opts) (*trial, error) {
	g, warm, span, slices := 14, 4*time.Second, 16*time.Second, 100
	if o.smoke {
		g, warm, span, slices = 6, time.Second, 9*time.Second, 9
	}
	total := warm + span
	t := newTrial(o)
	energy := core.DefaultEnergyModel()
	energy.CapacityJ = (1.4e-1 + 4e-3*total.Seconds()) * float64(g*g) / 36
	d, err := t.deploy(core.DeploymentSpec{
		Layout:      topology.GridLayout(g, g),
		Field:       t.field(),
		Energy:      &energy,
		Replication: &core.Replication{},
	})
	if err != nil {
		return nil, err
	}
	var killed []topology.Location
	markerIdx := make(map[topology.Location]int)
	probes, probesOK := 0, 0
	err = t.timed(&t.populateD, "populate", func() error {
		code := agents.Monitor(2)
		for idx, n := range d.Motes() {
			if err := t.createAgent(n, code); err != nil {
				return err
			}
			markerIdx[n.Loc()] = idx
			n := n
			if err := t.call("tuplespace.Out", func() error { return n.Space().Out(marker(idx)) }); err != nil {
				return err
			}
		}
		far := topology.Loc(int16(g), int16(g))
		commuter, err := asm.Assemble(agents.SmoveRoundTripSrc(far, topology.Loc(1, 1)))
		if err != nil {
			return fmt.Errorf("commuter: %w", err)
		}
		err = t.call("core.InjectAgent", func() error {
			_, err := d.Base.InjectAgent(commuter, topology.Loc(1, 1))
			return err
		})
		if err != nil {
			return err
		}
		sp := t.o.tr.begin("core.Script")
		defer t.o.tr.end(sp)
		mid := total / 2
		for i := 1; i <= g; i += 2 {
			loc := topology.Loc(int16(i), int16(i%g+1))
			d.KillAt(mid, loc)
			killed = append(killed, loc)
		}
		for i := 1; i <= g; i += 4 {
			d.ReviveAt(mid+total/4, topology.Loc(int16(i), int16(i%g+1)))
		}
		out, back := topology.Loc(1, int16(g/2)), topology.Loc(int16(g+1), int16(g/2))
		d.MoveAt(total/4, out, back)
		d.MoveAt(3*total/4, back, out)
		safe := topology.Loc(2, 1) // even column: never killed, never moved
		for _, loc := range killed {
			p := markerTemplate(markerIdx[loc])
			d.Sim.ScheduleWorldAt(mid+total/8, func() {
				d.Base.RemoteOp(wire.OpRrdp, safe, tuplespace.Tuple{}, p, func(r wire.RemoteReply, err error) {
					probes++
					if err == nil && r.OK {
						probesOK++
					}
				})
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.start(d)
	if err := t.warmTo(d, warm); err != nil {
		return nil, err
	}
	if err := t.runSlices(d, span, slices); err != nil {
		return nil, err
	}

	sp := t.o.tr.begin("stats.read")
	found := 0
	for idx := range d.Motes() {
		if markerReadable(d, idx) {
			found++
		}
	}
	t.o.tr.end(sp)
	if probes != len(killed) {
		t.failf("%d of %d mid-outage probes resolved", probes, len(killed))
	}
	t.ops = uint64(len(killed) + g*g)
	t.opsFailed = uint64(len(killed) - probesOK + g*g - found)
	t.layer["tuple_survival"] = float64(found) / float64(g*g)
	t.layer["energy_j"] = d.EnergyUsedJ()
	t.finishSim(d)
	return t, nil
}
