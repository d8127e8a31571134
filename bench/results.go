package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// env stamps a result file with what produced it. Host-measured metrics
// compare only between files whose env agree on everything but Commit.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func currentEnv() env {
	return env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		Commit:     gitCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // not a checkout git knows, or no git
	}
	return strings.TrimSpace(string(out))
}

// sameHost reports whether host-measured numbers from the two envs may
// be compared.
func (e env) sameHost(o env) bool {
	e.Commit, o.Commit = "", ""
	return e == o
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env  env   `json:"env"`
	Seed int64 `json:"seed"`
	// Claim names the gain a change claims from these numbers. The
	// change that defines the benchmark claims none.
	Claim   *string   `json:"claim"`
	Results []*result `json:"results"`
}

func writeResults(path string, seed int64, results []*result) error {
	b, err := json.MarshalIndent(resultFile{Env: currentEnv(), Seed: seed, Results: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// bridgedBound is the bound simulated results get on bridge-tcp: a late
// quantum there may legitimately shift simulated statistics a little.
const bridgedBound = 0.05

// verdict compares one metric of one workload between a baseline and a
// new result file.
func verdict(def *metric, workload string, base, cur value, sameHost, sameSeed bool) string {
	worse := cur.Value - base.Value
	if def.Better == "higher" {
		worse = -worse
	}
	rel := 0.0
	if base.Value != 0 {
		rel = worse / math.Abs(base.Value)
	}
	bound := def.Bound
	switch {
	case def.Virtual && !sameSeed:
		return "refused: seeds differ"
	case !def.Virtual && !sameHost:
		return "refused: env differs"
	case def.Virtual && workload == "bridge-tcp":
		if strings.Contains(def.Name, ".") {
			// One late quantum moves a layer's counts by a handful,
			// which is a large share of a small count.
			return fmt.Sprintf("info: %+.1f%%", -rel*100)
		}
		bound = bridgedBound
	case def.Virtual:
		if cur.Value != base.Value {
			return "REGRESSION: not identical"
		}
		return "ok: identical"
	case bound == 0:
		return fmt.Sprintf("info: %+.1f%%", -rel*100)
	}
	if rel > bound {
		return fmt.Sprintf("REGRESSION: %.1f%% worse, bound %.0f%%", rel*100, bound*100)
	}
	return fmt.Sprintf("ok: %+.1f%%, bound %.0f%%", -rel*100, bound*100)
}

type compareError struct{ regressions, refused int }

func (e compareError) Error() string {
	return fmt.Sprintf("%d regressions, %d comparisons refused", e.regressions, e.refused)
}

// compareFiles applies every metric's bound, per workload per metric, to
// two result files, refusing host-measured comparisons across differing
// env and virtual ones across differing seeds.
func compareFiles(basePath, curPath string, out io.Writer) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cur, err := readResults(curPath)
	if err != nil {
		return err
	}
	sameHost, sameSeed := base.Env.sameHost(cur.Env), base.Seed == cur.Seed
	if !sameHost {
		fmt.Fprintf(out, "env differs:\n  base %+v\n  new  %+v\n", base.Env, cur.Env)
	}
	var ce compareError
	for _, b := range base.Results {
		var c *result
		for _, r := range cur.Results {
			if r.Workload == b.Workload && r.Traced == b.Traced {
				c = r
			}
		}
		if c == nil {
			continue
		}
		fmt.Fprintf(out, "%s (traced=%v)\n", b.Workload, b.Traced)
		if b.StateHash != c.StateHash && sameSeed && b.Workload != "bridge-tcp" {
			fmt.Fprintf(out, "  %-32s REGRESSION: %s became %s\n", "state_hash", b.StateHash, c.StateHash)
			ce.regressions++
		}
		for _, tab := range [][]metric{endToEnd, perLayer} {
			for i := range tab {
				def := &tab[i]
				bv, ok1 := b.Metrics[def.Name]
				cv, ok2 := c.Metrics[def.Name]
				if !ok1 || !ok2 {
					continue
				}
				v := verdict(def, b.Workload, bv, cv, sameHost, sameSeed)
				switch {
				case strings.HasPrefix(v, "REGRESSION"):
					ce.regressions++
				case strings.HasPrefix(v, "refused"):
					ce.refused++
				}
				fmt.Fprintf(out, "  %-32s %14.6g -> %-14.6g %-6s %s\n", def.Name, bv.Value, cv.Value, def.Unit, v)
			}
		}
	}
	if ce.regressions > 0 || ce.refused > 0 {
		return ce
	}
	return nil
}
