// Package analyzers implements the repository's determinism linters:
// static analysis passes that keep wall clocks, global randomness, map
// iteration, ad-hoc goroutines, and lock-order inversions out of the
// simulation kernel.
//
// The whole point of this codebase is that a deployment's behavior is a
// pure function of its seed — the same seed replays the same run event
// for event under both the sequential and the sharded parallel executor.
// That property is easy to break with one innocuous line: a time.Now in
// a timeout path, a package-level rand.Intn, a `for k := range m` whose
// order leaks into an event timestamp. These passes make such lines a
// test-time error for the packages executed inside the kernel
// (GatedPrefixes); host-side code, tools, and tests are not gated.
//
// The passes run in-process, in `go test ./tools/analyzers`:
// TestKernelPackagesClean typechecks each gated package from source and
// hands it to Check, so a plain `go test ./...` fails on a finding.
//
// # Suppressing a finding
//
// A finding that is wrong or deliberate can be suppressed with a
// justification comment on the same line or the line directly above:
//
//	//lint:maprange links are inserted in (Y, X) order whatever order they are visited in
//	for loc := range m.att {
//
// The justification is mandatory: a bare //lint:<analyzer> comment is
// itself reported, so every suppression documents why the flagged code
// is deterministic after all.
//
// # Adding an analyzer
//
// Write a rule file defining an *Analyzer whose Run walks the files of a
// type-checked package via Pass and calls Pass.Reportf for each finding,
// then append it to the slice in All. The driver, the suppression
// machinery, the gate, and the tests pick it up from there; add a
// fixture in analyzers_test.go exercising both a hit and a clean use.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// GatedPrefixes lists the import-path prefixes the determinism rules
// apply to: the deterministic simulation kernel and the subsystems that
// execute inside it. Code outside these packages (the public API, CLI,
// experiments, tests) may use wall clocks and global randomness freely.
var GatedPrefixes = []string{
	"github.com/agilla-go/agilla/internal/core",
	"github.com/agilla-go/agilla/internal/sim",
	"github.com/agilla-go/agilla/internal/replica",
	"github.com/agilla-go/agilla/internal/radio",
}

// Gated reports whether the determinism rules apply to a package.
func Gated(importPath string) bool {
	for _, p := range GatedPrefixes {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}

// Analyzer is one determinism rule.
type Analyzer struct {
	// Name is the rule's identifier, used in diagnostics and //lint:
	// suppression comments.
	Name string
	// Doc is a one-paragraph description of what the rule enforces and
	// why.
	Doc string
	// Run walks one type-checked package and reports findings through
	// the pass.
	Run func(*Pass)
}

// All returns every determinism rule, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{walltime, simrand, maprange, gospawn, lockorder}
}

// Pass carries one type-checked package through an analyzer's Run.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	name  string
	diags *[]Diagnostic
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding from one analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Check runs every determinism rule over one type-checked package and
// returns the findings that survive //lint: suppression (plus findings
// for suppressions lacking a justification), sorted by position. It
// returns nil for packages outside the gate.
func Check(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) []Diagnostic {
	if !Gated(pkg.Path()) {
		return nil
	}
	var diags []Diagnostic
	for _, a := range All() {
		a.Run(&Pass{Fset: fset, Files: files, Pkg: pkg, Info: info, name: a.Name, diags: &diags})
	}
	diags = applySuppressions(fset, files, diags)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags
}

// suppression is one parsed //lint:<analyzer> comment.
type suppression struct {
	analyzer  string
	justified bool
	pos       token.Pos
	file      string
	line      int
}

// applySuppressions drops findings covered by a justified //lint:
// comment on the finding's line or the line directly above, and adds a
// finding for every bare suppression, so unjustified silencing cannot
// pass the linters.
func applySuppressions(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	var sups []suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				name, just, _ := strings.Cut(rest, " ")
				p := fset.Position(c.Pos())
				sups = append(sups, suppression{
					analyzer:  name,
					justified: strings.TrimSpace(just) != "",
					pos:       c.Pos(),
					file:      p.Filename,
					line:      p.Line,
				})
			}
		}
	}
	var kept []Diagnostic
	for _, d := range diags {
		p := fset.Position(d.Pos)
		suppressed := false
		for _, s := range sups {
			if s.justified && s.analyzer == d.Analyzer && s.file == p.Filename &&
				(s.line == p.Line || s.line == p.Line-1) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, s := range sups {
		if !s.justified {
			kept = append(kept, Diagnostic{
				Analyzer: s.analyzer,
				Pos:      s.pos,
				Message:  fmt.Sprintf("//lint:%s suppression needs a justification on the same comment", s.analyzer),
			})
		}
	}
	return kept
}
