package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// bench drives run the way main does and returns what it wrote.
func bench(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRunRejectsBadSelection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr []string // substrings the usage error must carry
	}{
		{"unknown name beside a valid one", []string{"-exp", "fig9,typo"}, []string{`"typo"`, "valid:", "casestudy"}},
		{"empty name", []string{"-exp", "fig5,"}, []string{`""`}},
		{"wire moved", []string{"-exp", "wire"}, []string{"bench/", "-workload wire-flood"}},
		{"vm moved", []string{"-exp", "fig5,vm"}, []string{"bench/", "-workload vm-compute"}},
		{"json without scale or churn", []string{"-exp", "fig9", "-json", "x"}, []string{"-json", "scale", "churn"}},
		{"json with the default all", []string{"-json", "x"}, []string{"-json"}},
		{"unknown flag", []string{"-tol", "3"}, []string{"-tol"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := bench(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr)
			}
			if stdout != "" {
				t.Errorf("a usage error ran something: %q", stdout)
			}
			for _, want := range tc.stderr {
				if !strings.Contains(stderr, want) {
					t.Errorf("stderr %q lacks %q", stderr, want)
				}
			}
		})
	}
}

func TestRunSelectedFigures(t *testing.T) {
	code, stdout, stderr := bench(t, "-exp", "fig5,memory")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"3.59KB", "2 experiment group(s)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}

// "-exp all" means every figure and table: the opt-in kernel benchmarks
// stay out of it, and one name shared by several groups runs them all.
func TestRunAllSkipsOptIn(t *testing.T) {
	code, stdout, stderr := bench(t, "-exp", "all", "-quick", "-trials", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "12 experiment group(s)") {
		t.Errorf("want the 12 figure groups:\n%s", stdout)
	}
	for _, optIn := range []string{"Kernel scaling", "Dynamic world"} {
		if strings.Contains(stdout, optIn) {
			t.Errorf("-exp all ran an opt-in benchmark (%q)", optIn)
		}
	}
}

func TestRunWritesJSON(t *testing.T) {
	rows := func(path string) int {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var got []map[string]any
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return len(got)
	}
	sweep := []string{"-quick", "-trials", "1", "-workers", "1"}

	file := filepath.Join(t.TempDir(), "scale.json")
	if code, _, stderr := bench(t, append(sweep, "-exp", "scale", "-json", file)...); code != 0 {
		t.Fatalf("one experiment: exit %d, stderr %q", code, stderr)
	}
	if rows(file) == 0 {
		t.Error("one experiment: -json FILE holds no rows")
	}

	dir := filepath.Join(t.TempDir(), "out")
	if code, _, stderr := bench(t, append(sweep, "-exp", "scale,churn", "-json", dir)...); code != 0 {
		t.Fatalf("both experiments: exit %d, stderr %q", code, stderr)
	}
	for _, name := range []string{"BENCH_scale.json", "BENCH_churn.json"} {
		if rows(filepath.Join(dir, name)) == 0 {
			t.Errorf("both experiments: %s holds no rows", name)
		}
	}
}

// An experiment that fails must still leave its profiles behind: run
// returns its exit code so the deferred writers fire.
func TestRunKeepsProfilesOnExperimentError(t *testing.T) {
	dir := t.TempDir()
	notADir := filepath.Join(dir, "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	code, _, stderr := bench(t, "-exp", "scale", "-quick", "-trials", "1", "-workers", "1",
		"-json", filepath.Join(notADir, "x"), "-cpuprofile", cpu, "-memprofile", mem)
	if code != 1 || !strings.Contains(stderr, "write ") {
		t.Fatalf("exit %d, stderr %q: want the JSON write to fail with 1", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty after a failed experiment (err %v)", filepath.Base(p), err)
		}
	}
}
