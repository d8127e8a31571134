package main

import (
	"encoding/json"
	"fmt"

	"github.com/agilla-go/agilla/internal/core"
)

// workloadInfo names one workload and records why it was chosen.
type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(opts) (*trial, error)
	// variant, when set, is a second configuration whose set-up phase
	// must reach the same state hash as the workload's own: a
	// correctness check that costs one set-up per run.
	variant     func(*opts)
	variantName string
	// stable marks workloads whose simulated state repeats exactly per
	// seed, so trials of one run must agree on state_hash.
	stable bool
	// parallel workloads run once more at Workers=2 in the traced run,
	// for sim.w2_speedup and a whole-run hash comparison.
	parallel bool
}

var workloads = []workloadInfo{
	{Name: "field-40k", run: fieldTrial, stable: true, parallel: true,
		variant: func(o *opts) { o.workers = 2 }, variantName: "Workers=2",
		Why: "200x200 motes of beacons and sensing loops: the event heap, timers and broadcast delivery do the work, and the heap no longer fits the caches"},
	{Name: "vm-compute", run: vmTrial, stable: true,
		variant: func(o *opts) { o.exec = core.ExecStep }, variantName: "ExecStep",
		Why: "10x10 motes each running four compute loops: the VM backend does the work, so a VM gain shows here and must not move field-40k"},
	{Name: "agents-lossy", run: agentsTrial, stable: true,
		Why: "40x40 lossy field of wandering, reporting and collecting agents: migration, remote ops, routing, codecs, tuple matching and the allocator all matter"},
	{Name: "churn-repl", run: churnTrial, stable: true,
		Why: "14x14 motes under kills, revivals, a move and batteries with replication on: tuple space and radio used for writes, tombstones and gossip, not reads and migrations"},
	{Name: "bridge-tcp", run: bridgeTrial, stable: true,
		Why: "the agents-lossy population on a 40x20 field split across a localhost TCP bridge in lock-step 5 ms quanta: wall time is per-quantum socket latency"},
	{Name: "wire-flood", run: wireTrial,
		Why: "4M border frames through two TCP endpoints in a closed-loop window: batch codec, coalescer and socket I/O do the work and the simulator none"},
}

func workloadByName(name string) *workloadInfo {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// move says which end-to-end metric, on which workload, a per-layer
// metric is expected to move.
type move struct {
	Metric, Workload string
}

// metric describes one reported number. The end-to-end table and the
// per-layer table below are the single source BENCHMARK.json, the result
// files, -compare and the README tables are all checked against.
type metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline by which the metric may get
	// worse before -compare (and the driver, for end-to-end metrics)
	// calls it a regression. Without one, a virtual metric must be
	// identical and a host-measured one is shown without a verdict.
	Bound float64
	// Virtual marks simulated statistics: they repeat exactly per seed
	// on the sequential kernel, are compared for equality, and may be
	// compared across machines. Everything else is measured on the host
	// and compares only within one env.
	Virtual bool
	// On lists the workloads that report the metric (nil: all). A
	// workload outside the list reports 0.
	On    []string
	Moves []move
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "ok_frac", Unit: "frac", Better: "higher", Bound: 0.02, Virtual: true},
}

var (
	simOn      = []string{"field-40k", "vm-compute", "agents-lossy", "churn-repl", "bridge-tcp"}
	protoOn    = []string{"agents-lossy", "bridge-tcp"}
	churnOn    = []string{"churn-repl"}
	bridgeOn   = []string{"bridge-tcp"}
	wireOn     = []string{"bridge-tcp", "wire-flood"}
	fieldOn    = []string{"field-40k"}
	thrField   = []move{{"throughput", "field-40k"}}
	thrVM      = []move{{"throughput", "vm-compute"}}
	thrAgents  = []move{{"throughput", "agents-lossy"}}
	thrChurn   = []move{{"throughput", "churn-repl"}}
	thrBridge  = []move{{"throughput", "bridge-tcp"}}
	thrFlood   = []move{{"throughput", "wire-flood"}}
	thrTuples  = []move{{"throughput", "agents-lossy"}, {"throughput", "churn-repl"}}
	thrRouting = []move{{"throughput", "field-40k"}, {"throughput", "agents-lossy"}}
	okAgents   = []move{{"ok_frac", "agents-lossy"}}
	okChurn    = []move{{"ok_frac", "churn-repl"}}
	allocAg    = []move{{"throughput", "agents-lossy"}, {"alloc_mb", "agents-lossy"}}
	setupField = []move{{"setup_s", "field-40k"}, {"heap_mb", "field-40k"}}
)

// perLayer are the traced run's numbers. The first five are results a
// user sees that only some workloads produce; BENCHMARK.json's
// end_to_end list must hold metrics every workload reports, so they
// live here, with bounds -compare still applies.
var perLayer = []metric{
	{Name: "mig_hop_ms_p50", Unit: "ms", Better: "lower", Virtual: true, On: protoOn, Moves: okAgents},
	{Name: "remote_rtt_ms_p50", Unit: "ms", Better: "lower", Virtual: true, On: protoOn, Moves: okAgents},
	{Name: "remote_rtt_ms_p99", Unit: "ms", Better: "lower", Virtual: true, On: protoOn, Moves: okAgents},
	{Name: "tuple_survival", Unit: "frac", Better: "higher", Virtual: true, On: churnOn, Moves: okChurn},
	{Name: "energy_j", Unit: "J", Better: "lower", Virtual: true, On: churnOn, Moves: okChurn},

	{Name: "sim.events", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: thrField},
	{Name: "sim.dispatched", Unit: "count", Better: "lower", On: simOn, Moves: thrField},
	{Name: "sim.absorb_ratio", Unit: "frac", Better: "higher", On: simOn, Moves: thrField},
	{Name: "sim.pending_peak", Unit: "count", Better: "lower", On: simOn, Moves: thrField},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", On: simOn, Moves: thrField},
	{Name: "sim.slice_ms_p50", Unit: "ms", Better: "lower", Moves: thrField},
	{Name: "sim.slice_ms_p90", Unit: "ms", Better: "lower", Moves: thrField},
	{Name: "sim.cpu_share", Unit: "frac", Better: "lower", Moves: thrField},
	{Name: "sim.probe_ns_event_10k", Unit: "ns", Better: "lower", Moves: thrField},
	{Name: "sim.probe_ns_event_40k", Unit: "ns", Better: "lower", Moves: thrField},
	{Name: "sim.w2_speedup", Unit: "x", Better: "higher", On: fieldOn, Moves: thrField},

	{Name: "radio.sent", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: thrField},
	{Name: "radio.delivered", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: thrField},
	{Name: "radio.dropped", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: thrField},
	{Name: "radio.loss_frac", Unit: "frac", Better: "lower", Virtual: true, On: simOn, Moves: okAgents},
	{Name: "radio.noroute", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: thrField},
	{Name: "radio.cpu_share", Unit: "frac", Better: "lower", Moves: thrField},
	{Name: "radio.probe_ns_bcast", Unit: "ns", Better: "lower", Moves: thrField},
	{Name: "radio.probe_ns_ucast", Unit: "ns", Better: "lower", Moves: thrField},

	{Name: "network.beacons", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: thrRouting},
	{Name: "network.forwarded", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: thrRouting},
	{Name: "network.originated", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: thrRouting},
	{Name: "network.route_stalls", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: thrRouting},
	{Name: "network.ttl_exceeded", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: thrRouting},
	{Name: "network.cpu_share", Unit: "frac", Better: "lower", Moves: thrRouting},
	{Name: "network.probe_ns_beacon", Unit: "ns", Better: "lower", Moves: thrRouting},
	{Name: "network.probe_ns_route", Unit: "ns", Better: "lower", Moves: thrRouting},

	{Name: "vm.instr", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: thrVM},
	{Name: "vm.instr_per_s", Unit: "1/s", Better: "higher", On: simOn, Moves: thrVM},
	{Name: "vm.ns_per_instr", Unit: "ns", Better: "lower", On: simOn, Moves: thrVM},
	{Name: "vm.instr_per_dispatch", Unit: "count", Better: "higher", On: simOn, Moves: thrVM},
	{Name: "vm.cpu_share", Unit: "frac", Better: "lower", Moves: thrVM},
	{Name: "vm.probe_ns_instr_step", Unit: "ns", Better: "lower", Moves: thrVM},
	{Name: "vm.probe_ns_instr_compiled", Unit: "ns", Better: "lower", Moves: thrVM},

	{Name: "core.mig_started", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: thrAgents},
	{Name: "core.mig_ok", Unit: "count", Better: "higher", Virtual: true, On: simOn, Moves: okAgents},
	{Name: "core.mig_fail", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: okAgents},
	{Name: "core.remote_ok", Unit: "count", Better: "higher", Virtual: true, On: simOn, Moves: okAgents},
	{Name: "core.remote_fail", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: okAgents},
	{Name: "core.agents_died", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: okAgents},
	{Name: "core.frames_missed", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: okChurn},
	{Name: "core.cpu_share", Unit: "frac", Better: "lower", Moves: thrAgents},

	{Name: "tuplespace.outs", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: thrTuples},
	{Name: "tuplespace.reactions", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: thrTuples},
	{Name: "tuplespace.cpu_share", Unit: "frac", Better: "lower", Moves: thrTuples},
	{Name: "tuplespace.probe_ns_out", Unit: "ns", Better: "lower", Moves: thrTuples},
	{Name: "tuplespace.probe_ns_rdp_hit", Unit: "ns", Better: "lower", Moves: thrTuples},
	{Name: "tuplespace.probe_ns_rdp_miss", Unit: "ns", Better: "lower", Moves: thrTuples},
	{Name: "tuplespace.probe_ns_inp", Unit: "ns", Better: "lower", Moves: thrTuples},
	{Name: "tuplespace.probe_ns_reg_match", Unit: "ns", Better: "lower", Moves: thrTuples},

	{Name: "replica.digests_sent", Unit: "count", Better: "lower", Virtual: true, On: churnOn, Moves: []move{{"throughput", "churn-repl"}, {"energy_j", "churn-repl"}}},
	{Name: "replica.digests_suppressed", Unit: "count", Better: "higher", Virtual: true, On: churnOn, Moves: thrChurn},
	{Name: "replica.suppress_ratio", Unit: "frac", Better: "higher", Virtual: true, On: churnOn, Moves: thrChurn},
	{Name: "replica.tuples_replicated", Unit: "count", Better: "lower", Virtual: true, On: churnOn, Moves: thrChurn},
	{Name: "replica.tuples_recovered", Unit: "count", Better: "higher", Virtual: true, On: churnOn, Moves: okChurn},
	{Name: "replica.syncs", Unit: "count", Better: "lower", Virtual: true, On: churnOn, Moves: thrChurn},
	{Name: "replica.cpu_share", Unit: "frac", Better: "lower", Moves: thrChurn},
	{Name: "replica.probe_us_digest", Unit: "us", Better: "lower", Moves: thrChurn},
	{Name: "replica.probe_us_delta", Unit: "us", Better: "lower", Moves: thrChurn},
	{Name: "replica.probe_us_merge", Unit: "us", Better: "lower", Moves: thrChurn},

	{Name: "wire.cpu_share", Unit: "frac", Better: "lower", Moves: thrFlood},
	{Name: "wire.bytes_per_frame", Unit: "B", Better: "lower", On: wireOn, Moves: thrFlood},
	{Name: "wire.probe_ns_batch_encode", Unit: "ns", Better: "lower", Moves: thrFlood},
	{Name: "wire.probe_ns_batch_decode", Unit: "ns", Better: "lower", Moves: thrFlood},
	{Name: "wire.probe_ns_mig_codec", Unit: "ns", Better: "lower", Moves: allocAg},
	{Name: "wire.probe_allocs_frame", Unit: "count", Better: "lower", Moves: []move{{"alloc_mb", "wire-flood"}}},

	{Name: "transport.sent", Unit: "count", Better: "lower", On: wireOn, Moves: thrBridge},
	{Name: "transport.batches", Unit: "count", Better: "lower", On: wireOn, Moves: thrFlood},
	{Name: "transport.frames_per_batch", Unit: "count", Better: "higher", On: wireOn, Moves: thrFlood},
	{Name: "transport.dropped", Unit: "count", Better: "lower", On: wireOn, Moves: []move{{"ok_frac", "wire-flood"}}},
	{Name: "transport.malformed", Unit: "count", Better: "lower", On: wireOn, Moves: []move{{"ok_frac", "wire-flood"}}},
	{Name: "transport.send_errs", Unit: "count", Better: "lower", On: wireOn, Moves: []move{{"ok_frac", "wire-flood"}}},
	{Name: "transport.cpu_share", Unit: "frac", Better: "lower", Moves: thrFlood},
	{Name: "transport.drain_wait_us_p50", Unit: "us", Better: "lower", On: wireOn, Moves: thrBridge},
	{Name: "transport.drain_wait_us_p90", Unit: "us", Better: "lower", On: wireOn, Moves: thrBridge},
	{Name: "transport.late_quanta", Unit: "count", Better: "lower", On: bridgeOn, Moves: []move{{"ok_frac", "bridge-tcp"}}},
	{Name: "transport.wait_share", Unit: "frac", Better: "lower", On: wireOn, Moves: thrBridge},
	{Name: "transport.udp_frames_per_s", Unit: "1/s", Better: "higher", Moves: thrFlood},
	{Name: "transport.udp_loss_frac", Unit: "frac", Better: "lower", Moves: thrFlood},
	{Name: "transport.loop_frames_per_s", Unit: "1/s", Better: "higher", Moves: thrFlood},

	{Name: "bridge.relayed", Unit: "count", Better: "lower", On: bridgeOn, Moves: thrBridge},
	{Name: "bridge.injected", Unit: "count", Better: "lower", On: bridgeOn, Moves: thrBridge},
	{Name: "bridge.stale", Unit: "count", Better: "lower", On: bridgeOn, Moves: []move{{"ok_frac", "bridge-tcp"}}},
	{Name: "bridge.misrouted", Unit: "count", Better: "lower", On: bridgeOn, Moves: []move{{"ok_frac", "bridge-tcp"}}},
	{Name: "bridge.pump_us_p50", Unit: "us", Better: "lower", On: bridgeOn, Moves: thrBridge},
	{Name: "bridge.pump_share", Unit: "frac", Better: "lower", On: bridgeOn, Moves: thrBridge},

	{Name: "sensor.samples", Unit: "count", Better: "lower", Virtual: true, On: simOn, Moves: thrField},
	{Name: "sensor.cpu_share", Unit: "frac", Better: "lower", Moves: thrField},
	{Name: "topology.cpu_share", Unit: "frac", Better: "lower", Moves: thrField},

	{Name: "go.gc_share", Unit: "frac", Better: "lower", Moves: allocAg},
	{Name: "go.num_gc", Unit: "count", Better: "lower", Moves: allocAg},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", Moves: allocAg},
	{Name: "go.alloc_mb_per_vs", Unit: "MB/s", Better: "lower", On: simOn, Moves: allocAg},
	{Name: "go.other_share", Unit: "frac", Better: "lower", Moves: thrBridge},

	{Name: "setup.deploy_s", Unit: "s", Better: "lower", Moves: setupField},
	{Name: "setup.populate_s", Unit: "s", Better: "lower", Moves: setupField},
	{Name: "setup.warmup_s", Unit: "s", Better: "lower", Moves: setupField},
	{Name: "setup.bytes_per_mote", Unit: "B", Better: "lower", On: simOn, Moves: setupField},

	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Moves: thrAgents},
	{Name: "trace.unattributed_share", Unit: "frac", Better: "lower", Moves: thrAgents},
	{Name: "bench.cpu_share", Unit: "frac", Better: "lower", Moves: thrFlood},
}

func metricByName(name string) *metric {
	for _, tab := range [][]metric{endToEnd, perLayer} {
		for i := range tab {
			if tab[i].Name == name {
				return &tab[i]
			}
		}
	}
	return nil
}

// runSeconds is how long one run measures when the driver does not say.
const runSeconds = 12

// manifest renders BENCHMARK.json from the tables above. The committed
// file must equal it byte for byte (bench_test.go checks).
func manifest() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadInfo `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return append(b, '\n'), nil
}
