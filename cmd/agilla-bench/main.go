// Command agilla-bench regenerates every table and figure from the
// paper's evaluation (§4), the case study (§5), and the design-choice
// ablations, printing paper-style rows and series.
//
// Usage:
//
//	agilla-bench -exp all
//	agilla-bench -exp fig9 -trials 100 -seed 7
//	agilla-bench -exp fig10,fig11,fig12,fig5,memory,speed,casestudy,mate
//	agilla-bench -exp ablate
//
// Experiments (E-numbers as in internal/experiments' package comment):
//
//	fig9      reliability of smove vs rout across 1-5 hops  (E1)
//	fig10     latency of smove vs rout across 1-5 hops      (E2)
//	fig11     one-hop latency of every remote operation     (E3)
//	fig12     local instruction latency classes             (E4)
//	fig5      migration message formats and sizes           (E5)
//	memory    the 3.59KB SRAM budget decomposition          (E6)
//	speed     maximum migration rate / tracking speed       (E7)
//	casestudy the fire detection and tracking scenario      (E8)
//	ensemble  the fire scenario swept over -runs seeds,
//	          fanned out across cores by the scenario
//	          runner (Ctrl-C cancels outstanding runs)
//	mate      reprogramming cost vs a Maté-style VM          (E9)
//	ablate    protocol and channel-model ablations
//	scale     kernel event throughput on grids from 5×5 to
//	          100×100, swept over worker counts up to
//	          -workers; -json writes the machine-readable
//	          rows (BENCH_scale.json schema: scenario,
//	          nodes, workers, events, events_per_sec,
//	          wall_secs, hash, ...). Benchmarks the kernel
//	          rather than a paper figure, so it is not part
//	          of "-exp all" — request it explicitly.
//	churn     the dynamic-world benchmark: grids under a
//	          scripted kill/revive/move schedule with the
//	          energy model active, swept over -workers like
//	          scale, once without and once with gossip
//	          replication, quantifying the tuple-survival
//	          and remote-lookup gains under the identical
//	          schedule and seed; -json writes
//	          BENCH_churn.json rows. Also opt-in, for the
//	          same reason as scale.
//
// -json DIR names a directory (created if missing) that receives
// BENCH_scale.json and/or BENCH_churn.json, one per selected sweep: the
// artifact names CI uploads to track the perf trajectory. No other
// experiment writes JSON rows, so -json without scale or churn is a
// usage error, as is any -exp name not listed above.
//
// The wire path and the VM backends are timed by the bench module
// instead: go run -C bench . -workload wire-flood|vm-compute.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"github.com/agilla-go/agilla/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// group is one experiment run, selected by any of its -exp names.
// Opt-in groups benchmark the kernel rather than reproduce a figure, so
// "-exp all" skips them: it keeps meaning "every figure and table".
type group struct {
	names []string
	optIn bool
	run   func() (fmt.Stringer, error)
}

// moved maps the experiments the bench module superseded to the workload
// that now measures the same thing.
var moved = map[string]string{"wire": "wire-flood", "vm": "vm-compute"}

// run is main with its exit code returned rather than taken, so the
// deferred profile writers fire on every path.
func run(args []string, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// After the first Ctrl-C, unregister the handler so a second one
	// kills the process the default way.
	context.AfterFunc(ctx, stop)

	var (
		cfg     experiments.Config
		runs    int
		jsonDir string
		want    = map[string]bool{}
	)
	type jsonResult interface {
		fmt.Stringer
		JSON() ([]byte, error)
	}
	writingJSON := func(name string, f func() (jsonResult, error)) func() (fmt.Stringer, error) {
		return func() (fmt.Stringer, error) {
			res, err := f()
			if err != nil || jsonDir == "" {
				return res, err
			}
			data, err := res.JSON()
			if err != nil {
				return nil, err
			}
			path := filepath.Join(jsonDir, name)
			if err = os.MkdirAll(jsonDir, 0o755); err == nil {
				err = os.WriteFile(path, append(data, '\n'), 0o644)
			}
			if err != nil {
				return nil, fmt.Errorf("write %s: %w", path, err)
			}
			return res, nil
		}
	}
	groups := []group{
		{names: []string{"fig9", "fig10"}, run: func() (fmt.Stringer, error) { return experiments.Fig9and10(cfg) }},
		{names: []string{"fig11"}, run: func() (fmt.Stringer, error) { return experiments.Fig11(cfg) }},
		{names: []string{"fig12"}, run: func() (fmt.Stringer, error) { return experiments.Fig12(cfg) }},
		{names: []string{"fig5"}, run: func() (fmt.Stringer, error) { return experiments.Fig5Sizes() }},
		{names: []string{"memory"}, run: func() (fmt.Stringer, error) { return experiments.Memory(), nil }},
		{names: []string{"speed"}, run: func() (fmt.Stringer, error) { return experiments.Speed(cfg) }},
		{names: []string{"casestudy"}, run: func() (fmt.Stringer, error) { return experiments.CaseStudy(cfg) }},
		{names: []string{"ensemble"}, run: func() (fmt.Stringer, error) { return experiments.CaseStudyEnsemble(ctx, cfg, runs) }},
		{names: []string{"mate"}, run: func() (fmt.Stringer, error) { return experiments.MateCompare(cfg) }},
		{names: []string{"ablate"}, run: func() (fmt.Stringer, error) { return experiments.AblationEndToEnd(cfg) }},
		{names: []string{"ablate"}, run: func() (fmt.Stringer, error) { return experiments.AblationLossModel(cfg) }},
		{names: []string{"ablate"}, run: func() (fmt.Stringer, error) { return experiments.AblationRetries(cfg) }},
		{names: []string{"scale"}, optIn: true, run: writingJSON("BENCH_scale.json", func() (jsonResult, error) { return experiments.Scale(cfg) })},
		{names: []string{"churn"}, optIn: true, run: writingJSON("BENCH_churn.json", func() (jsonResult, error) { return experiments.Churn(cfg) })},
	}
	var valid []string
	for _, g := range groups {
		for _, n := range g.names {
			if !slices.Contains(valid, n) {
				valid = append(valid, n)
			}
		}
	}
	valid = append(valid, "all")
	validList := strings.Join(valid, ",")

	fs := flag.NewFlagSet("agilla-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiments: "+validList)
	fs.IntVar(&cfg.Trials, "trials", 100, "trials per data point")
	fs.Int64Var(&cfg.Seed, "seed", 7, "simulation seed")
	fs.IntVar(&runs, "runs", 8, "seeds for the ensemble experiment")
	fs.BoolVar(&cfg.Quick, "quick", false, "reduced trial counts for a fast pass")
	fs.IntVar(&cfg.Workers, "workers", 4, "max kernel parallelism the scale/churn experiments sweep up to")
	fs.StringVar(&jsonDir, "json", "", "write scale/churn rows as JSON (needs -exp scale and/or churn) into this directory: BENCH_scale.json, BENCH_churn.json")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		if workload, ok := moved[name]; ok {
			fmt.Fprintf(stderr, "agilla-bench: -exp %s is measured by bench/ now: go run -C bench . -workload %s\n", name, workload)
			return 2
		}
		if !slices.Contains(valid, name) {
			fmt.Fprintf(stderr, "agilla-bench: unknown experiment %q (valid: %s)\n", name, validList)
			return 2
		}
		want[name] = true
	}
	if jsonDir != "" && !want["scale"] && !want["churn"] {
		fmt.Fprintln(stderr, "agilla-bench: -json needs -exp scale and/or churn: no other experiment writes JSON rows")
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "agilla-bench: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "agilla-bench: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "agilla-bench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle: profile live objects, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "agilla-bench: memprofile: %v\n", err)
			}
		}()
	}

	start := time.Now()
	ran := 0
	for _, g := range groups {
		selected := want["all"] && !g.optIn ||
			slices.ContainsFunc(g.names, func(n string) bool { return want[n] })
		if !selected {
			continue
		}
		// The experiments themselves are uninterruptible except for the
		// ensemble, which polls the context internally.
		if ctx.Err() != nil {
			break
		}
		res, err := g.run()
		if err != nil {
			fmt.Fprintf(stderr, "agilla-bench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, res)
		ran++
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "agilla-bench: interrupted")
		return 130
	}
	fmt.Fprintf(stdout, "\n%d experiment group(s) in %.1fs (wall clock)\n", ran, time.Since(start).Seconds())
	return 0
}
