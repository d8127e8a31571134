package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// driverLine is the result line the driver reads.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted uint64                  `json:"attempted"`
	Failed    uint64                  `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

func runSmoke(t *testing.T, workload, trace string) driverLine {
	t.Helper()
	var out bytes.Buffer
	err := run([]string{"-smoke", "-workload", workload, "-seconds", "0.05", "-trace", trace, "-spans", t.TempDir()}, &out)
	if err != nil {
		t.Fatalf("%s -trace %s: %v\n%s", workload, trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res driverLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s -trace %s: last line is not the result object: %v\n%s", workload, trace, err, lines[len(lines)-1])
	}
	return res
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeEmitsTheManifest runs a -smoke size of all six workloads,
// untraced and traced, and holds what they emit against BENCHMARK.json:
// the workload set, and every metric name and unit of either run.
func TestSmokeEmitsTheManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(man.Workloads), len(workloads))
	}
	for _, w := range man.Workloads {
		if workloadByName(w.Name) == nil {
			t.Fatalf("BENCHMARK.json workload %q is not one the harness runs", w.Name)
		}
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": man.EndToEnd, "1": man.PerLayer} {
			res := runSmoke(t, w.Name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s -trace %s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s -trace %s: %d metrics emitted, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !metricName.MatchString(m.Name):
					t.Errorf("metric name %q is outside the allowed alphabet", m.Name)
				case !ok:
					t.Errorf("%s -trace %s: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s -trace %s: %s has unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestManifestIsTheTables pins BENCHMARK.json to the metric and workload
// tables: regenerate it with `go run -C bench . -manifest`.
func TestManifestIsTheTables(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `bench -manifest`")
	}
}

// TestEveryLayerMetricNamesWhatItMoves: the interaction table is written
// down before measuring, so each per-layer metric must name a result a
// user sees and a workload to see it on.
func TestEveryLayerMetricNamesWhatItMoves(t *testing.T) {
	visible := make(map[string]bool)
	for _, m := range endToEnd {
		visible[m.Name] = true
	}
	for _, m := range perLayer {
		if !strings.Contains(m.Name, ".") {
			visible[m.Name] = true
		}
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s defined twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		for _, w := range m.On {
			if workloadByName(w) == nil {
				t.Errorf("%s: reported on unknown workload %q", m.Name, w)
			}
		}
	}
	for _, m := range perLayer {
		if len(m.Moves) == 0 {
			t.Errorf("%s names nothing it is expected to move", m.Name)
		}
		for _, mv := range m.Moves {
			if !visible[mv.Metric] || workloadByName(mv.Workload) == nil {
				t.Errorf("%s: moves %s on %s, which is not a result on a workload", m.Name, mv.Metric, mv.Workload)
			}
		}
	}
}

var spinSink uint64

func spinForProfile(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += uint64(i) * 2654435761
		}
	}
}

// TestProfileReaderRoundTrip takes a CPU profile in-test and reads it
// back with the harness's own reader.
func TestProfileReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spin, total int64
	for _, s := range samples {
		total += s.Nanos
		for _, fn := range s.Funcs {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spin += s.Nanos
				if got := layerOf(s.Funcs); got != bucketBench {
					t.Fatalf("a harness stack was attributed to %q: %v", got, s.Funcs)
				}
				break
			}
		}
	}
	// Not "most of it": under -race the sanitizer's own frames have no
	// Go caller in the profile.
	if total < int64(100*time.Millisecond) || spin == 0 {
		t.Errorf("%d of %d profiled ns found under spinForProfile over a 300 ms spin", spin, total)
	}
	if _, err := readProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string
	}{
		{"replica", []string{"sort.Slice", modulePrefix + "internal/replica.(*Set).sortedOf", modulePrefix + "internal/core.(*Node).gossipTick", "main.churnTrial"}},
		{"transport", []string{"syscall.Syscall", "net.(*conn).Write", modulePrefix + "internal/transport.(*TCP).sendLoop"}},
		{bucketBench, []string{"hash/crc32.Update", "main.frameSum", "main.wireTrial", "runtime.main"}},
		{bucketGC, []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{bucketRuntime, []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}},
		{bucketUnattributed, nil},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestHooksUnderTwoWorkers runs every trace hook on shard goroutines
// (run with -race) and checks that observing a run does not change it.
func TestHooksUnderTwoWorkers(t *testing.T) {
	seq, err := agentsTrial(opts{seed: 5, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := agentsTrial(opts{seed: 5, smoke: true, workers: 2, tr: newTracer("race")})
	if err != nil {
		t.Fatal(err)
	}
	if par.hash != seq.hash {
		t.Errorf("traced run at Workers=2 reached state %016x, sequential untraced %016x", par.hash, seq.hash)
	}
	if par.h.migOK.Load() == 0 || par.h.remoteOK.Load() == 0 || par.h.tupleOut.Load() == 0 {
		t.Errorf("hooks saw %d hops, %d remote ops, %d outs: the smoke population did nothing",
			par.h.migOK.Load(), par.h.remoteOK.Load(), par.h.tupleOut.Load())
	}
	if par.h.migOK.Load() != seq.h.migOK.Load() || par.h.remoteOK.Load() != seq.h.remoteOK.Load() {
		t.Errorf("hook counts differ across worker counts")
	}
}

func TestVerdict(t *testing.T) {
	thr, okf, gc := metricByName("throughput"), metricByName("ok_frac"), metricByName("go.num_gc")
	v := func(x float64) value { return value{Value: x} }
	for _, c := range []struct {
		def                *metric
		workload           string
		base, cur          float64
		sameHost, sameSeed bool
		want               string
	}{
		{thr, "field-40k", 2.0, 1.9, true, true, "ok"},
		{thr, "field-40k", 2.0, 1.4, true, true, "REGRESSION"},
		{thr, "field-40k", 2.0, 2.6, true, true, "ok"},
		{thr, "field-40k", 2.0, 2.0, false, true, "refused: env"},
		{okf, "agents-lossy", 0.98, 0.98, false, true, "ok: identical"},
		{okf, "agents-lossy", 0.98, 0.981, true, true, "REGRESSION: not identical"},
		{okf, "agents-lossy", 0.98, 0.98, true, false, "refused: seeds"},
		{okf, "bridge-tcp", 0.98, 0.97, true, true, "ok"},
		{okf, "bridge-tcp", 0.98, 0.90, true, true, "REGRESSION"},
		{gc, "agents-lossy", 30, 60, true, true, "info"},
		{metricByName("core.remote_fail"), "bridge-tcp", 28, 30, true, true, "info"},
		{metricByName("core.remote_fail"), "agents-lossy", 28, 30, true, true, "REGRESSION: not identical"},
	} {
		if got := verdict(c.def, c.workload, v(c.base), v(c.cur), c.sameHost, c.sameSeed); !strings.HasPrefix(got, c.want) {
			t.Errorf("verdict(%s on %s, %v -> %v, sameHost=%v sameSeed=%v) = %q, want %q…",
				c.def.Name, c.workload, c.base, c.cur, c.sameHost, c.sameSeed, got, c.want)
		}
	}
}

// BenchmarkProbe exposes every layer probe to `go test -bench`.
func BenchmarkProbe(b *testing.B) {
	for _, p := range timedProbes {
		b.Run(p.metric, func(b *testing.B) {
			op := p.build()
			b.ReportAllocs()
			b.ResetTimer()
			op(b.N, b)
		})
	}
}

// TestReadmeNamesEveryMetric keeps README.md's tables from drifting away
// from the metric and workload tables.
func TestReadmeNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, w := range workloads {
		if !strings.Contains(doc, "`"+w.Name+"`") {
			t.Errorf("README.md does not mention workload %s", w.Name)
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !strings.Contains(doc, "`"+m.Name+"`") {
			t.Errorf("README.md does not mention metric %s", m.Name)
		}
	}
}
