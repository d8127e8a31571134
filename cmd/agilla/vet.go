package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"github.com/agilla-go/agilla/program"
)

// runVet runs the static dataflow and energy analysis (program.Analyze)
// over agent programs and prints the findings, positioned by source line
// where available. Targets may be assembly source files, raw bytecode
// files, directories (searched recursively for .agilla/.asm files), or
// the names of library agents; -lib adds every library agent.
//
// Exit is nonzero when any program fails to verify, carries error-level
// findings, or — under -budget — cannot be certified within the given
// per-burst joule budget. With -strict, warnings (dead code, unreachable
// reactions, unbounded energy) also fail.
func runVet(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("agilla vet", flag.ExitOnError)
	budget := flags.Float64("budget", 0, "reject programs whose per-burst energy bound exceeds this many joules (0 = no cap)")
	strict := flags.Bool("strict", false, "treat warnings as failures")
	lib := flags.Bool("lib", false, "also vet every library agent")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if flags.NArg() == 0 && !*lib {
		return fmt.Errorf("usage: agilla vet [-budget J] [-strict] [-lib] [prog.agilla|prog.bin|dir|library-name ...]")
	}

	type target struct {
		name string
		prog *program.Program
		err  error // load/verify failure
	}
	var targets []target

	addFile := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			targets = append(targets, target{name: path, err: err})
			return
		}
		var p *program.Program
		if looksLikeSource(data) {
			p, err = program.Parse(string(data))
		} else {
			p, err = program.FromBytes(data)
		}
		targets = append(targets, target{name: path, prog: p, err: err})
	}

	for _, arg := range flags.Args() {
		if e, ok := program.Get(arg); ok {
			targets = append(targets, target{name: "library:" + arg, prog: e.Program})
			continue
		}
		info, err := os.Stat(arg)
		switch {
		case err != nil:
			targets = append(targets, target{name: arg, err: fmt.Errorf("not a file, directory, or library agent: %w", err)})
		case info.IsDir():
			err := filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if ext := filepath.Ext(path); !d.IsDir() && (ext == ".agilla" || ext == ".asm") {
					addFile(path)
				}
				return nil
			})
			if err != nil {
				targets = append(targets, target{name: arg, err: err})
			}
		default:
			addFile(arg)
		}
	}
	if *lib {
		for _, e := range program.Library() {
			targets = append(targets, target{name: "library:" + e.Name, prog: e.Program})
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("vet: no agent programs found")
	}

	failed := 0
	for _, t := range targets {
		if t.err != nil {
			fmt.Fprintf(stdout, "%s: FAIL\n    %v\n", t.name, t.err)
			failed++
			continue
		}
		rep := program.Analyze(t.prog)
		bad := rep.HasErrors() ||
			(*strict && len(rep.Findings) > 0) ||
			(*budget > 0 && (rep.EnergyUnbounded || rep.EnergyBoundJ() > *budget))
		verdict := "ok"
		if bad {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(stdout, "%s: %s\n    %s\n", t.name, verdict,
			strings.ReplaceAll(rep.String(), "\n", "\n    "))
		if *budget > 0 && !rep.EnergyUnbounded && rep.EnergyBoundJ() > *budget {
			fmt.Fprintf(stdout, "    over budget: %.3g J per burst > %.3g J\n", rep.EnergyBoundJ(), *budget)
		}
	}
	if failed > 0 {
		return fmt.Errorf("vet: %d of %d programs failed", failed, len(targets))
	}
	return nil
}
