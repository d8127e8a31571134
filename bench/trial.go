package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/sim"
)

// opts is what one trial runs with.
type opts struct {
	seed    int64
	smoke   bool          // tiny sizes, for the test suite
	workers int           // executor shards; 0 or 1 is the sequential kernel
	exec    core.ExecMode // VM backend
	prefix  bool          // stop after set-up: the trial only yields warmHash (field-40k and vm-compute, for their variants)
	tr      *tracer       // nil: tracing off
}

// trial is everything measured on one fresh deployment.
type trial struct {
	o opts
	h hooks

	// Set-up wall time by phase; setup_s is their sum.
	deployD, populateD, warmD time.Duration

	// The timed phase: wall time of each slice, and how many workload
	// units (virtual seconds, or frames) one slice covers.
	slices        []time.Duration
	unitsPerSlice float64

	allocBytes uint64
	heapLive   []uint64 // live heap as of the last collection, sampled after every slice
	numGC      uint32
	gcPause    time.Duration
	profile    []byte // CPU profile of the timed phase (traced run only)

	// Operations the harness drove and checked (the result line's
	// attempted/failed), and the modelled operations behind ok_frac.
	calls, callErrs       uint64
	quantaRun, quantaLate uint64 // bridge-tcp: lock-step quanta, and those whose drain hit the cap
	ops, opsFailed        uint64

	// Traced run only: the timed phase as tracer timestamps, the events
	// and instructions executed inside it, and the live heap set-up left
	// behind, for the per-layer metrics.
	timedFrom, timedTo      int64
	timedEvents, timedInstr uint64
	heapBefore, setupHeap   uint64
	motes                   int // 0 on wire-flood, whose slices are frames, not virtual seconds

	warmHash, hash uint64
	layer          map[string]float64 // per-layer numbers by metric name (traced run only, but for a workload's own results)
	pendingPeak    int
	samples        atomic.Uint64 // sense operations, counted by the seeded field (traced run only)
	checks         []string      // failed correctness checks
}

func newTrial(o opts) *trial {
	return &trial{o: o, layer: make(map[string]float64)}
}

func (t *trial) failf(format string, args ...any) {
	t.checks = append(t.checks, fmt.Sprintf(format, args...))
}

// timed runs fn inside a span and adds its wall time to *acc.
func (t *trial) timed(acc *time.Duration, name string, fn func() error) error {
	sp := t.o.tr.begin(name)
	start := time.Now()
	err := fn()
	*acc += time.Since(start)
	t.o.tr.end(sp)
	return err
}

// deploy builds the deployment (timed as set-up) and installs the hooks.
func (t *trial) deploy(spec core.DeploymentSpec) (*core.Deployment, error) {
	// Settle the heap so the previous trial's garbage is not collected
	// on this trial's clock.
	runtime.GC()
	if t.o.tr != nil && t.motes == 0 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		t.heapBefore = m.HeapAlloc
	}
	t.motes += len(spec.Layout.Nodes)
	spec.Seed = t.o.seed
	spec.Workers = t.o.workers
	spec.Node.Exec = t.o.exec
	var d *core.Deployment
	err := t.timed(&t.deployD, "core.NewDeployment", func() (err error) {
		d, err = core.NewDeployment(spec)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.h.install(d, t.o.tr != nil)
	return d, nil
}

// call wraps one checked harness call into the system (an injection, a
// tuple insert): it is counted, spanned, and its error recorded.
func (t *trial) call(name string, fn func() error) error {
	sp := t.o.tr.begin(name)
	err := fn()
	t.o.tr.end(sp)
	t.calls++
	if err != nil {
		t.callErrs++
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func (t *trial) createAgent(n *core.Node, code []byte) error {
	return t.call("core.CreateAgent", func() error {
		_, err := n.CreateAgent(code)
		return err
	})
}

// timedPhase is what beginTimed snapshots: the allocator counters, and
// in the traced run the CPU profile being written and the event and
// instruction counts so far.
type timedPhase struct {
	before        runtime.MemStats
	prof          *bytes.Buffer
	events, instr uint64
}

func executed(ds []*core.Deployment) (events, instr uint64) {
	for _, d := range ds {
		events += d.Sim.Executed()
		instr += d.TotalStats().InstrExecuted
	}
	return events, instr
}

// beginTimed opens the timed phase of a trial over the given
// deployments (none for wire-flood).
func (t *trial) beginTimed(ds ...*core.Deployment) (*timedPhase, error) {
	runtime.GC()
	p := &timedPhase{}
	runtime.ReadMemStats(&p.before)
	if t.o.tr != nil {
		t.setupHeap = p.before.HeapAlloc - t.heapBefore
		p.events, p.instr = executed(ds)
		p.prof = new(bytes.Buffer)
		if err := pprof.StartCPUProfile(p.prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		t.timedFrom = int64(time.Since(t.o.tr.t0))
	}
	return p, nil
}

// abort abandons a timed phase that failed part-way.
func (p *timedPhase) abort() {
	if p.prof != nil {
		pprof.StopCPUProfile()
	}
}

// endTimed closes the timed phase: allocation delta, GC counts and the
// CPU profile.
func (t *trial) endTimed(p *timedPhase, ds ...*core.Deployment) {
	if p.prof != nil {
		t.timedTo = int64(time.Since(t.o.tr.t0))
		pprof.StopCPUProfile()
		t.profile = p.prof.Bytes()
		events, instr := executed(ds)
		t.timedEvents, t.timedInstr = events-p.events, instr-p.instr
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.allocBytes = m.TotalAlloc - p.before.TotalAlloc
	t.numGC = m.NumGC - p.before.NumGC
	t.gcPause = time.Duration(m.PauseTotalNs - p.before.PauseTotalNs)
}

// sliceDone records one timed slice and samples the live heap: what the
// last collection found reachable, which costs no collection of its own
// and, over a few hundred slices, does not depend on where the run
// happened to stop.
func (t *trial) sliceDone(wall time.Duration) {
	t.slices = append(t.slices, wall)
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	t.heapLive = append(t.heapLive, sample[0].Value.Uint64())
}

// runSlices is the timed phase of a simulated workload: span of virtual
// time cut into n equal slices, each one Sim.Run call timed from here.
func (t *trial) runSlices(d *core.Deployment, span time.Duration, n int) error {
	mk, err := t.beginTimed(d)
	if err != nil {
		return err
	}
	start := d.Sim.Now()
	step := span / time.Duration(n)
	t.unitsPerSlice = step.Seconds()
	for i := 1; i <= n; i++ {
		sp := t.o.tr.begin("sim.Run")
		t0 := time.Now()
		err := d.Sim.Run(start + step*time.Duration(i))
		dt := time.Since(t0)
		t.o.tr.end(sp)
		t.calls++
		if err != nil {
			t.callErrs++
			mk.abort()
			return fmt.Errorf("sim.Run slice %d: %w", i, err)
		}
		t.sliceDone(dt)
		if t.o.tr != nil {
			sp := t.o.tr.begin("sim.Pending")
			if p := d.Sim.Pending(); p > t.pendingPeak {
				t.pendingPeak = p
			}
			t.o.tr.end(sp)
		}
	}
	t.endTimed(mk, d)
	return nil
}

// timedWall is the wall time of the whole timed phase.
func (t *trial) timedWall() time.Duration {
	var sum time.Duration
	for _, s := range t.slices {
		sum += s
	}
	return sum
}

func (t *trial) setupWall() time.Duration { return t.deployD + t.populateD + t.warmD }

// stateHash digests every node's middleware and network counters plus
// the medium counters, in location order (as experiments.scaleHash
// does): any divergence in the simulated schedule shows here before it
// shows in an aggregate.
func stateHash(ds ...*core.Deployment) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, d := range ds {
		for _, n := range d.Nodes() {
			loc := n.Loc()
			word(uint64(sim.Key2D(loc.X, loc.Y)))
			s := n.Stats()
			for _, v := range []uint64{
				s.InstrExecuted, s.AgentsHosted, s.AgentsHalted, s.AgentsDied,
				s.MigrationsOut, s.MigrationsOK, s.MigrationsFail,
				s.RemoteInitiated, s.RemoteOK, s.RemoteFail, s.ReactionsFired,
				s.FramesMissed, s.EnergyDeaths, s.TuplesReplicated, s.TuplesRecovered,
				s.DigestsSent, s.DigestsSuppressed,
			} {
				word(v)
			}
			ns := n.Net().Stats()
			for _, v := range []uint64{
				ns.BeaconsSent, ns.Forwarded, ns.Originated, ns.DeliveredUp,
				ns.RouteStalls, ns.TTLExceeded, ns.DirectFrames,
			} {
				word(v)
			}
			word(uint64(n.Net().Acquaintances().Len()))
			word(uint64(n.Space().TupleCount()))
		}
		m := d.Medium.Stats()
		for _, v := range []uint64{m.Sent, m.Delivered, m.Dropped, m.NoRoute, m.Bytes, m.Links} {
			word(v)
		}
	}
	return h.Sum64()
}

// finishSim closes a simulated trial: the state hash and, in the traced
// run, the virtual latency statistics and each layer's counters read
// through its public Stats().
func (t *trial) finishSim(ds ...*core.Deployment) {
	sp := t.o.tr.begin("stats.read")
	defer t.o.tr.end(sp)
	t.hash = stateHash(ds...)
	if t.o.tr == nil {
		return
	}
	l := t.layer
	l["mig_hop_ms_p50"] = quantileOf(t.h.migHopMs, 0.50)
	l["remote_rtt_ms_p50"] = quantileOf(t.h.rttMs, 0.50)
	l["remote_rtt_ms_p99"] = quantileOf(t.h.rttMs, 0.99)
	for _, d := range ds {
		l["sim.events"] += float64(d.Sim.Executed())
		l["sim.dispatched"] += float64(d.Sim.Dispatched())
		m := d.Medium.Stats()
		l["radio.sent"] += float64(m.Sent)
		l["radio.delivered"] += float64(m.Delivered)
		l["radio.dropped"] += float64(m.Dropped)
		l["radio.noroute"] += float64(m.NoRoute)
		for _, n := range d.Nodes() {
			ns := n.Net().Stats()
			l["network.beacons"] += float64(ns.BeaconsSent)
			l["network.forwarded"] += float64(ns.Forwarded)
			l["network.originated"] += float64(ns.Originated)
			l["network.route_stalls"] += float64(ns.RouteStalls)
			l["network.ttl_exceeded"] += float64(ns.TTLExceeded)
		}
		s := d.TotalStats()
		l["vm.instr"] += float64(s.InstrExecuted)
		l["core.frames_missed"] += float64(s.FramesMissed)
		l["replica.digests_sent"] += float64(s.DigestsSent)
		l["replica.digests_suppressed"] += float64(s.DigestsSuppressed)
		l["replica.tuples_replicated"] += float64(s.TuplesReplicated)
		l["replica.tuples_recovered"] += float64(s.TuplesRecovered)
	}
	l["sim.pending_peak"] = float64(t.pendingPeak)
}
