package agilla_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api from the current source")

// TestPublicSurface pins every exported identifier of agilla and program,
// one per line with its signature, to testdata/api. An API change is then
// a reviewed golden diff; regenerate with
//
//	go test -run TestPublicSurface -update .
func TestPublicSurface(t *testing.T) {
	for _, pkg := range []struct{ dir, path, golden string }{
		{".", "github.com/agilla-go/agilla", "agilla.txt"},
		{"program", "github.com/agilla-go/agilla/program", "program.txt"},
	} {
		got := renderSurface(t, pkg.dir, pkg.path)
		golden := filepath.Join("testdata", "api", pkg.golden)
		if *update {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: exported surface differs from %s (review, then rerun with -update):\n%s",
				pkg.path, golden, lineDiff(string(want), got))
		}
	}
}

// renderSurface lists the exported identifiers of the package in dir as
// sorted lines: "const", "var", "func", "type", "method" and "field"
// entries, each with its declared type or signature.
func renderSurface(t *testing.T, dir, importPath string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	p, err := doc.NewFromFiles(fset, files, importPath)
	if err != nil {
		t.Fatal(err)
	}
	src := func(n any) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}

	var lines []string
	values := func(kind string, vals []*doc.Value) {
		for _, v := range vals {
			var typ ast.Expr // an implicit repetition inherits the type above it
			for _, spec := range v.Decl.Specs {
				vs := spec.(*ast.ValueSpec)
				if vs.Type != nil || vs.Values != nil {
					typ = vs.Type
				}
				for i, name := range vs.Names {
					line := kind + " " + name.Name
					if typ != nil {
						line += " " + src(typ)
					}
					if i < len(vs.Values) {
						line += " = " + src(vs.Values[i])
					}
					lines = append(lines, line)
				}
			}
		}
	}
	funcs := func(kind string, fns []*doc.Func) {
		for _, fn := range fns {
			lines = append(lines, kind+" "+strings.TrimPrefix(src(&ast.FuncDecl{Recv: fn.Decl.Recv, Name: fn.Decl.Name, Type: fn.Decl.Type}), "func "))
		}
	}
	values("const", p.Consts)
	values("var", p.Vars)
	funcs("func", p.Funcs)
	for _, typ := range p.Types {
		spec := typ.Decl.Specs[0].(*ast.TypeSpec)
		var members *ast.FieldList
		switch x := spec.Type.(type) {
		case *ast.StructType:
			lines = append(lines, "type "+typ.Name+" struct")
			members = x.Fields
		case *ast.InterfaceType:
			lines = append(lines, "type "+typ.Name+" interface")
			members = x.Methods
		default:
			lines = append(lines, "type "+src(spec))
		}
		if members != nil {
			for _, f := range members.List {
				names := []string{src(f.Type)} // embedded
				if len(f.Names) > 0 {
					names = names[:0]
					for _, n := range f.Names {
						names = append(names, n.Name)
					}
				}
				for _, n := range names {
					lines = append(lines, "field "+typ.Name+"."+n+" "+src(f.Type))
				}
			}
		}
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs("func", typ.Funcs)
		funcs("method", typ.Methods)
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n") + "\n"
}

// lineDiff lists the lines only one side has: "-" for the golden, "+" for
// the current source.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for _, l := range w {
		if !slices.Contains(g, l) {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range g {
		if !slices.Contains(w, l) {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
