package analyzers

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const modulePath = "github.com/agilla-go/agilla"

// repoImporter typechecks this repository's packages from source,
// recursively, so the determinism rules can run over the real kernel in
// `go test`. Std-lib imports resolve from GOROOT source; module-internal
// imports map onto the repo tree.
type repoImporter struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*types.Package
}

func newRepoImporter(fset *token.FileSet, root string) *repoImporter {
	return &repoImporter{
		fset: fset,
		root: root,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*types.Package),
	}
}

func (ri *repoImporter) Import(path string) (*types.Package, error) {
	pkg, _, err := ri.load(path, nil)
	return pkg, err
}

// load typechecks one package, returning its files and the Info when
// the caller supplies one (the package under analysis does; transitive
// dependencies don't need it).
func (ri *repoImporter) load(path string, info *types.Info) (*types.Package, []*ast.File, error) {
	if pkg, ok := ri.pkgs[path]; ok && info == nil {
		return pkg, nil, nil
	}
	if !strings.HasPrefix(path, modulePath) {
		pkg, err := ri.std.Import(path)
		return pkg, nil, err
	}
	dir := filepath.Join(ri.root, filepath.FromSlash(strings.TrimPrefix(path, modulePath)))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(ri.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: ri}
	pkg, err := conf.Check(path, ri.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("typechecking %s: %w", path, err)
	}
	ri.pkgs[path] = pkg
	return pkg, files, nil
}

// repoRoot walks up from the working directory to the go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test's working directory")
		}
		dir = parent
	}
}

// The gated kernel packages must be clean under the determinism rules:
// every remaining flagged site carries a justified //lint: suppression.
// This is the one place the rules run over the repository, so a plain
// `go test ./...` is the gate.
func TestKernelPackagesClean(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	ri := newRepoImporter(fset, root)
	for _, path := range GatedPrefixes {
		path := path
		t.Run(strings.TrimPrefix(path, modulePath+"/internal/"), func(t *testing.T) {
			info := &types.Info{
				Types:      make(map[ast.Expr]types.TypeAndValue),
				Defs:       make(map[*ast.Ident]types.Object),
				Uses:       make(map[*ast.Ident]types.Object),
				Selections: make(map[*ast.SelectorExpr]*types.Selection),
			}
			pkg, files, err := ri.load(path, info)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range Check(fset, files, pkg, info) {
				t.Errorf("%s: %s: %s", fset.Position(d.Pos), d.Analyzer, d.Message)
			}
		})
	}
}
