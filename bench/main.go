// Command bench is the repository's one benchmark: six named workloads
// driven through the public functions of internal/core, internal/sim,
// internal/transport and friends, end-to-end metrics measured with
// tracing off, and a separate traced run that attributes the time to
// layers from outside the program. See README.md beside this file.
//
//	go run -C bench . -out results.json            every workload, untraced
//	go run -C bench . -trace 1 -out results.json   plus the traced runs
//	go run -C bench . -probes                      the layer probes alone
//	go run -C bench . -compare A.json B.json       apply the bounds
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The last form is the driver's: it prints one JSON result line last.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload and end with the driver's JSON result line (default: all six)")
		seed     = fs.Int64("seed", 7, "workload seed: the program only ever sees inputs generated from it")
		seconds  = fs.Float64("seconds", runSeconds, "time budget of one untraced run's timed phases")
		trace    = fs.Int("trace", 0, "1: the traced run (per-layer metrics, span file); 0: end-to-end metrics")
		smoke    = fs.Bool("smoke", false, "tiny sizes of every workload, for the test suite")
		outFile  = fs.String("out", "", "write the results, with their env stamp, to this file")
		spanDir  = fs.String("spans", ".bench_build/spans", "directory the traced run writes <workload>.jsonl span files to")
		probes   = fs.Bool("probes", false, "run the layer probes alone and print them")
		compare  = fs.Bool("compare", false, "compare two result files: -compare BASE.json NEW.json")
		print    = fs.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *print:
		b, err := manifest()
		if err != nil {
			return err
		}
		_, err = out.Write(b)
		return err
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), out)
	case *probes:
		return printProbes(out)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1")
	}

	todo := workloads
	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		todo = []workloadInfo{*w}
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var results []*result
	for i := range todo {
		w := &todo[i]
		fmt.Fprintf(out, "%s (seed %d)\n", w.Name, *seed)
		// With -workload the driver asks for one run or the other; the
		// one command without it does both when tracing is on.
		if *trace == 0 || *workload == "" {
			r, err := runUntraced(w, *seed, budget, *smoke, out)
			if err != nil {
				return err
			}
			printResult(out, r)
			results = append(results, r)
		}
		if *trace == 1 {
			r, err := runTraced(w, *seed, *smoke, *spanDir, out)
			if err != nil {
				return err
			}
			printResult(out, r)
			results = append(results, r)
		}
	}
	if *outFile != "" {
		if err := writeResults(*outFile, *seed, results); err != nil {
			return err
		}
	}
	bad := 0
	for _, r := range results {
		if !r.Correct {
			bad++
		}
	}
	if *workload != "" {
		// The driver reads the last line of standard output.
		r := results[0]
		line, err := json.Marshal(struct {
			Correct   bool                    `json:"correct"`
			Attempted uint64                  `json:"attempted"`
			Failed    uint64                  `json:"failed"`
			Metrics   map[string]driverMetric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, driverMetrics(r)})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d runs failed their correctness checks", bad, len(results))
	}
	return nil
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverMetrics(r *result) map[string]driverMetric {
	m := make(map[string]driverMetric, len(r.Metrics))
	for k, v := range r.Metrics {
		m[k] = driverMetric{v.Value, v.Unit}
	}
	return m
}

// printResult lists a run's metrics by name with unit, sample count and,
// where the metric has one, its regression bound.
func printResult(out io.Writer, r *result) {
	kind := "end-to-end (tracing off)"
	if r.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(out, "  %s: correct=%v attempted=%d failed=%d trials=%d", kind, r.Correct, r.Attempted, r.Failed, r.Trials)
	if r.StateHash != "" {
		fmt.Fprintf(out, " state_hash=%s", r.StateHash)
	}
	fmt.Fprintln(out)
	for _, c := range r.Checks {
		fmt.Fprintf(out, "  FAILED CHECK: %s\n", c)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v, def := r.Metrics[k], metricByName(k)
		fmt.Fprintf(out, "    %-32s %16.6g %-6s", k, v.Value, v.Unit)
		if v.Samples > 0 {
			fmt.Fprintf(out, " n=%-7d", v.Samples)
		}
		switch {
		case def.Bound > 0:
			fmt.Fprintf(out, " %s is better, bound %.0f%%", def.Better, def.Bound*100)
		case def.Virtual:
			fmt.Fprintf(out, " %s is better, exact per seed", def.Better)
		}
		fmt.Fprintln(out)
	}
}

func printProbes(out io.Writer) error {
	m, err := runProbes(false)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-34s %14.4g %s\n", k, m[k], metricByName(k).Unit)
	}
	return nil
}
