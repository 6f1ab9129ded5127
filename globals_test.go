package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestNoProcessGlobalCounters guards against process-wide mutable state in
// production code: no package-level var under internal/, cmd/ or spt/ may
// use sync/atomic or sync.Map in its type or initializer, directly or
// through a struct type of its own package. Counts belong to the object
// that owns what they count (a run's RunStats, a cache's Stats), so two
// daemons, or two jobs, in one process never see each other's numbers.
func TestNoProcessGlobalCounters(t *testing.T) {
	pkgs := map[string][]string{} // directory -> its non-test Go files
	for _, root := range []string{"internal", "cmd", "spt"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
				pkgs[filepath.Dir(p)] = append(pkgs[filepath.Dir(p)], p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("found no Go packages to check")
	}
	fset := token.NewFileSet()
	for dir, paths := range pkgs {
		var files []*ast.File
		for _, p := range paths {
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		for _, g := range mutableGlobals(fset, files) {
			t.Errorf("%s: package-level var %s holds process-wide mutable state (package %s)", g.pos, g.name, dir)
		}
	}
}

// TestMutableGlobalsDetector checks the detector itself on a package that
// declares every shape it must catch and the shared stores it must allow.
func TestMutableGlobalsDetector(t *testing.T) {
	const src = `package p

import (
	"sync"
	"sync/atomic"
	at "sync/atomic"
)

type counters struct{ n atomic.Int64 }
type wrapped struct{ c [2]counters }

var flat atomic.Int64
var registry sync.Map
var (
	grouped counters
	nested  = &wrapped{}
)
var renamed at.Bool
var initialized = func() *int64 { var n int64; atomic.AddInt64(&n, 1); return &n }()

var pool sync.Pool
var sem = make(chan struct{}, 1)
var table = map[string]int{"a": 1}
var mu sync.Mutex
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, g := range mutableGlobals(fset, []*ast.File{f}) {
		got = append(got, g.name)
	}
	want := []string{"flat", "registry", "grouped", "nested", "renamed", "initialized"}
	if !slices.Equal(got, want) {
		t.Fatalf("flagged %v; want %v", got, want)
	}
}

type global struct {
	name string
	pos  token.Position
}

// mutableGlobals returns the package-level vars of one package's files
// whose type or initializer uses sync/atomic or sync.Map, directly or
// through a type the package declares.
func mutableGlobals(fset *token.FileSet, files []*ast.File) []global {
	// imports maps each file's local import names to their paths.
	imports := map[*ast.File]map[string]string{}
	for _, f := range files {
		m := map[string]string{}
		for _, s := range f.Imports {
			p, _ := strconv.Unquote(s.Path.Value)
			name := path.Base(p)
			if s.Name != nil {
				name = s.Name.Name
			}
			m[name] = p
		}
		imports[f] = m
	}
	tainted := map[string]bool{} // package types that hold atomics or a sync.Map
	uses := func(f *ast.File, n ast.Node) bool {
		found := false
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					switch imports[f][id.Name] {
					case "sync/atomic":
						found = true
					case "sync":
						found = found || x.Sel.Name == "Map"
					}
				}
				return false
			case *ast.Ident:
				found = found || tainted[x.Name]
			}
			return !found
		})
		return found
	}
	for changed := true; changed; {
		changed = false
		for _, f := range files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
					for _, s := range gd.Specs {
						ts := s.(*ast.TypeSpec)
						if !tainted[ts.Name.Name] && uses(f, ts.Type) {
							tainted[ts.Name.Name] = true
							changed = true
						}
					}
				}
			}
		}
	}
	var out []global
	for _, f := range files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, s := range gd.Specs {
				vs := s.(*ast.ValueSpec)
				hit := vs.Type != nil && uses(f, vs.Type)
				for _, v := range vs.Values {
					hit = hit || uses(f, v)
				}
				if hit {
					for _, n := range vs.Names {
						out = append(out, global{n.Name, fset.Position(n.Pos())})
					}
				}
			}
		}
	}
	return out
}
