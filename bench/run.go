package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// value is one reported number.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one run of one workload: the untraced run's end-to-end
// metrics, or the traced run's per-layer metrics.
type result struct {
	Workload  string           `json:"workload"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Trials    int              `json:"trials"`
	StateHash string           `json:"state_hash,omitempty"`
	Checks    []string         `json:"failed_checks,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	Spans     string           `json:"spans,omitempty"`
}

// minTrials is the fewest fresh deployments a run measures, whatever
// its time budget: three give every slice a median and set-up time a
// middle value.
const minTrials = 3

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// steadyWall estimates the wall time of one trial's timed phase from
// several trials of identical work. Slice i does the same work in every
// trial, so the median over trials of its wall time drops the trials in
// which something else had the machine, and the sum over i still counts
// every slice: a median pooled over all slices would ignore whichever
// kind of slice is in the minority (field-40k's agents all wake in the
// same one slice in eight).
func steadyWall(trials []*trial) time.Duration {
	var sum float64
	col := make([]float64, len(trials))
	for i := range trials[0].slices {
		for k, t := range trials {
			col[k] = float64(t.slices[i])
		}
		sum += median(col)
	}
	return time.Duration(sum)
}

// runUntraced measures a workload's end-to-end metrics: at least
// minTrials trials, then as many more as fit in the time budget.
func runUntraced(w *workloadInfo, seed int64, budget time.Duration, smoke bool, log io.Writer) (*result, error) {
	o := opts{seed: seed, smoke: smoke}
	var trials []*trial
	var spent time.Duration
	for {
		t, err := w.run(o)
		if err != nil {
			return nil, fmt.Errorf("%s trial %d: %w", w.Name, len(trials)+1, err)
		}
		trials = append(trials, t)
		spent += t.timedWall()
		fmt.Fprintf(log, "  trial %d: set-up %.3fs, timed %.3fs, hash %016x\n", len(trials), t.setupWall().Seconds(), t.timedWall().Seconds(), t.hash)
		if len(trials) >= minTrials && spent+spent/time.Duration(len(trials)) > budget {
			break
		}
	}
	first := trials[0]
	r := &result{Workload: w.Name, Trials: len(trials), Metrics: make(map[string]value)}
	if w.stable {
		r.StateHash = fmt.Sprintf("%016x", first.hash)
	}
	late := uint64(0)
	for _, t := range trials {
		r.Attempted += t.calls
		r.Failed += t.callErrs
		r.Checks = append(r.Checks, t.checks...)
		late += t.quantaLate
	}
	// A late quantum lets border frames land a quantum later than they
	// would have, so only then may a bridged run's trials differ.
	if w.stable && late == 0 {
		for k, t := range trials[1:] {
			if t.hash != first.hash {
				r.Checks = append(r.Checks, fmt.Sprintf("trial %d state hash %016x differs from trial 1's %016x", k+2, t.hash, first.hash))
			}
		}
	}
	if w.variant != nil {
		vo := o
		vo.prefix = true
		w.variant(&vo)
		vt, err := w.run(vo)
		if err != nil {
			return nil, fmt.Errorf("%s under %s: %w", w.Name, w.variantName, err)
		}
		r.Attempted++
		if vt.warmHash != first.warmHash {
			r.Failed++
			r.Checks = append(r.Checks, fmt.Sprintf("set-up under %s reached state %016x, not %016x", w.variantName, vt.warmHash, first.warmHash))
		}
		fmt.Fprintf(log, "  set-up under %s: hash %016x\n", w.variantName, vt.warmHash)
	}
	r.Correct = len(r.Checks) == 0 && r.Failed == 0

	var setup, heap, alloc, okFrac []float64
	for _, t := range trials {
		setup = append(setup, t.setupWall().Seconds())
		for _, b := range t.heapLive {
			heap = append(heap, float64(b)/1e6)
		}
		alloc = append(alloc, float64(t.allocBytes)/1e6)
		okFrac = append(okFrac, 1-float64(t.opsFailed)/float64(t.ops))
	}
	units := first.unitsPerSlice * float64(len(first.slices))
	r.Metrics["setup_s"] = value{median(setup), "s", len(trials)}
	r.Metrics["throughput"] = value{units / steadyWall(trials).Seconds(), "1/s", len(trials) * len(first.slices)}
	r.Metrics["heap_mb"] = value{median(heap), "MB", len(heap)}
	r.Metrics["alloc_mb"] = value{median(alloc), "MB", len(trials)}
	r.Metrics["ok_frac"] = value{median(okFrac), "frac", int(first.ops)}
	return r, nil
}

// runTraced produces a workload's per-layer metrics from one traced
// trial, an untraced one beside it for the overhead, and the layer
// probes. No end-to-end metric is ever taken from here.
func runTraced(w *workloadInfo, seed int64, smoke bool, spanDir string, log io.Writer) (*result, error) {
	base, err := w.run(opts{seed: seed, smoke: smoke})
	if err != nil {
		return nil, fmt.Errorf("%s untraced: %w", w.Name, err)
	}
	tr := newTracer(fmt.Sprintf("%s-seed%d", w.Name, seed))
	t, err := w.run(opts{seed: seed, smoke: smoke, tr: tr})
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", w.Name, err)
	}
	r := &result{Workload: w.Name, Traced: true, Trials: 1, Metrics: make(map[string]value)}
	r.Attempted, r.Failed = t.calls, t.callErrs
	r.Checks = append(r.Checks, t.checks...)
	if w.stable {
		r.StateHash = fmt.Sprintf("%016x", t.hash)
		if t.hash != base.hash && t.quantaLate+base.quantaLate == 0 {
			r.Checks = append(r.Checks, fmt.Sprintf("traced state hash %016x differs from untraced %016x: the hooks perturbed the run", t.hash, base.hash))
		}
	}

	m := t.layer
	if w.parallel {
		p, err := w.run(opts{seed: seed, smoke: smoke, workers: 2})
		if err != nil {
			return nil, fmt.Errorf("%s at Workers=2: %w", w.Name, err)
		}
		r.Attempted++
		if p.hash != base.hash {
			r.Failed++
			r.Checks = append(r.Checks, fmt.Sprintf("state hash at Workers=2 %016x differs from sequential %016x", p.hash, base.hash))
		}
		m["sim.w2_speedup"] = base.timedWall().Seconds() / p.timedWall().Seconds()
	}
	probes, err := runProbes(smoke)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		m[k] = v
	}
	if err := t.layerMetrics(tr); err != nil {
		return nil, err
	}
	m["trace.overhead_frac"] = t.timedWall().Seconds()/base.timedWall().Seconds() - 1

	r.Spans = filepath.Join(spanDir, w.Name+".jsonl")
	if err := tr.writeJSONL(r.Spans); err != nil {
		return nil, err
	}
	// The profile the shares came from, for `go tool pprof`.
	if err := os.WriteFile(filepath.Join(spanDir, w.Name+".pprof"), t.profile, 0o644); err != nil {
		return nil, err
	}
	for _, def := range perLayer {
		r.Metrics[def.Name] = value{Value: m[def.Name], Unit: def.Unit}
	}
	r.Correct = len(r.Checks) == 0 && r.Failed == 0
	fmt.Fprintf(log, "  traced trial: timed %.3fs (untraced %.3fs), %d spans -> %s\n",
		t.timedWall().Seconds(), base.timedWall().Seconds(), len(tr.spans), r.Spans)
	printSpans(log, tr.summarize(0, int64(time.Since(tr.t0))))
	return r, nil
}

// printSpans lists the span names of a traced trial, largest total
// first, with their self time.
func printSpans(log io.Writer, sum map[string]*spanStat) {
	names := make([]string, 0, len(sum))
	for name := range sum {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return sum[names[i]].Total > sum[names[j]].Total })
	fmt.Fprintf(log, "    %-24s %9s %12s %12s\n", "span", "count", "total", "self")
	for _, name := range names {
		st := sum[name]
		fmt.Fprintf(log, "    %-24s %9d %12v %12v\n", name, st.Count, st.Total.Round(time.Microsecond), st.Self.Round(time.Microsecond))
	}
}

// layerMetrics adds to t.layer the per-layer numbers derived from the
// traced trial's spans, hook counters, Stats() reads and CPU profile.
func (t *trial) layerMetrics(tr *tracer) error {
	m := t.layer
	wall := t.timedWall().Seconds()
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Counts from the hooks.
	h := &t.h
	m["core.mig_started"] = float64(h.migStarted.Load())
	m["core.mig_ok"] = float64(h.migOK.Load())
	m["core.mig_fail"] = float64(h.migFail.Load())
	m["core.remote_ok"] = float64(h.remoteOK.Load())
	m["core.remote_fail"] = float64(h.remoteFail.Load())
	m["core.agents_died"] = float64(h.died.Load())
	m["tuplespace.outs"] = float64(h.tupleOut.Load())
	m["tuplespace.reactions"] = float64(h.reaction.Load())
	m["replica.syncs"] = float64(h.replicaSynced.Load())
	m["sensor.samples"] = float64(t.samples.Load())
	m["transport.late_quanta"] = float64(t.quantaLate)

	// Ratios of the Stats() counts.
	m["sim.absorb_ratio"] = ratio(m["sim.events"]-m["sim.dispatched"], m["sim.events"])
	m["radio.loss_frac"] = ratio(m["radio.dropped"], m["radio.delivered"]+m["radio.dropped"])
	m["vm.instr_per_dispatch"] = ratio(m["vm.instr"], m["sim.dispatched"])
	m["replica.suppress_ratio"] = ratio(m["replica.digests_suppressed"], m["replica.digests_sent"]+m["replica.digests_suppressed"])
	m["transport.frames_per_batch"] = ratio(m["transport.sent"]-m["transport.dropped"], m["transport.batches"])
	m["wire.bytes_per_frame"] = ratio(m["transport.sent_bytes"], m["transport.sent"]-m["transport.dropped"])

	// Spans of the timed phase.
	sp := tr.summarize(t.timedFrom, t.timedTo)
	window := float64(t.timedTo - t.timedFrom)
	m["sim.ns_per_event"] = ratio(float64(sp["sim.Run"].total()), float64(t.timedEvents))
	slices := make([]float64, len(t.slices))
	for i, s := range t.slices {
		slices[i] = float64(s) / float64(time.Millisecond)
	}
	m["sim.slice_ms_p50"] = quantileOf(slices, 0.50)
	m["sim.slice_ms_p90"] = quantileOf(slices, 0.90)
	wait := sp["transport.drain"]
	if wait == nil {
		wait = sp["transport.Recv"]
	}
	m["transport.drain_wait_us_p50"] = wait.quantile(0.50, time.Microsecond)
	m["transport.drain_wait_us_p90"] = wait.quantile(0.90, time.Microsecond)
	m["transport.wait_share"] = ratio(float64(wait.total()), window)
	m["bridge.pump_us_p50"] = sp["bridge.Pump"].quantile(0.50, time.Microsecond)
	m["bridge.pump_share"] = ratio(float64(sp["bridge.Pump"].total()), window)

	// CPU profile of the timed phase, attributed by package.
	samples, err := readProfile(t.profile)
	if err != nil {
		return err
	}
	shares, nanos := cpuShares(samples)
	for _, layer := range []string{"sim", "radio", "network", "vm", "core", "tuplespace", "replica", "wire", "transport", "sensor", "topology"} {
		m[layer+".cpu_share"] = shares[layer]
		delete(shares, layer)
	}
	m["bench.cpu_share"] = shares[bucketBench]
	m["go.gc_share"] = shares[bucketGC]
	m["go.other_share"] = shares[bucketRuntime]
	delete(shares, bucketBench)
	delete(shares, bucketGC)
	delete(shares, bucketRuntime)
	for _, s := range shares { // module packages that are no layer, and stacks nothing claims
		m["trace.unattributed_share"] += s
	}
	m["vm.ns_per_instr"] = ratio(float64(nanos["vm"]), float64(t.timedInstr))
	m["vm.instr_per_s"] = ratio(float64(t.timedInstr), wall)

	m["go.num_gc"] = float64(t.numGC)
	m["go.gc_pause_ms"] = float64(t.gcPause) / float64(time.Millisecond)
	if t.motes > 0 {
		m["go.alloc_mb_per_vs"] = ratio(float64(t.allocBytes)/1e6, t.unitsPerSlice*float64(len(t.slices)))
	}
	m["setup.deploy_s"] = t.deployD.Seconds()
	m["setup.populate_s"] = t.populateD.Seconds()
	m["setup.warmup_s"] = t.warmD.Seconds()
	m["setup.bytes_per_mote"] = ratio(float64(t.setupHeap), float64(t.motes))
	return nil
}
