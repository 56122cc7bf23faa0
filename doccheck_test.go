package bench

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// The missing-doc gate CI's "Missing-doc check" step runs
// (go test -run TestExportedSymbolsDocumented .): the packages that form
// the public face of the repo — the scenario framework, the sweep
// runner, the cluster model and the entire pkg/simaibench API — must
// carry a package-level doc comment and a doc comment on every exported
// symbol. New exports without docs fail here rather than accumulating
// documentation debt.

// docCheckedPackages are the directories the check covers.
var docCheckedPackages = []string{
	"internal/scenario",
	"internal/sweep",
	"internal/cluster",
	"internal/mpi",
	"internal/loadgen",
	"internal/schedule",
	"internal/serve",
	"internal/sigctx",
	"pkg/simaibench",
}

func TestExportedSymbolsDocumented(t *testing.T) {
	for _, dir := range docCheckedPackages {
		dir := dir
		t.Run(dir, func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range pkgs {
				hasPkgDoc := false
				for _, f := range pkg.Files {
					if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
						hasPkgDoc = true
					}
				}
				if !hasPkgDoc {
					t.Errorf("%s: package %s has no package-level doc comment", dir, pkg.Name)
				}
				for name, f := range pkg.Files {
					for _, miss := range undocumentedExports(f) {
						pos := fset.Position(miss.pos)
						t.Errorf("%s:%d: exported %s %s has no doc comment", name, pos.Line, miss.kind, miss.name)
					}
				}
			}
		})
	}
}

// TestFacadeNamesAreUsed keeps pkg/simaibench from growing by accretion
// again: simaibench.go is the paper's Listing-1 vocabulary, and every
// exported name any other file of the package declares must be
// referenced by a program under examples/ — a re-export nothing calls
// is a second way in that no one exercises. Everything else in the repo
// is reachable through RunScenario.
func TestFacadeNamesAreUsed(t *testing.T) {
	used := map[string]bool{}
	err := filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "simaibench" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "pkg/simaibench", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go") && fi.Name() != "simaibench.go"
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, decl := range f.Decls {
				for _, id := range declaredNames(decl) {
					if id.IsExported() && !used[id.Name] {
						t.Errorf("%s:%d: exported %s is referenced by no example: call it from one, or delete it",
							name, fset.Position(id.Pos()).Line, id.Name)
					}
				}
			}
		}
	}
}

// declaredNames returns the package-level identifiers decl introduces
// (methods excluded: they come with their type).
func declaredNames(decl ast.Decl) []*ast.Ident {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []*ast.Ident{d.Name}
		}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

type missingDoc struct {
	kind string
	name string
	pos  token.Pos
}

// undocumentedExports returns every exported top-level symbol of f that
// lacks a doc comment. Grouped var/const declarations are satisfied by
// a comment on the group (the standard godoc convention); individual
// specs inside a documented group need none.
func undocumentedExports(f *ast.File) []missingDoc {
	var out []missingDoc
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedReceiver(d) {
				continue
			}
			if d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				out = append(out, missingDoc{kind, d.Name.Name, d.Pos()})
			}
		case *ast.GenDecl:
			if d.Doc != nil {
				continue // group comment documents every spec
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
						out = append(out, missingDoc{"type", s.Name.Name, s.Pos()})
					}
				case *ast.ValueSpec:
					if s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							out = append(out, missingDoc{fmt.Sprint(d.Tok), n.Name, n.Pos()})
						}
					}
				}
			}
		}
	}
	return out
}

// exportedReceiver reports whether d is a plain function or a method on
// an exported type (methods on unexported types are not API surface).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true // be conservative: unknown shapes stay checked
		}
	}
}

// testAccessor is why a one-line read of state a test observes the
// engine through may stand without a production caller; the ROADMAP's
// diagnostics-block item is to give these a consumer.
const testAccessor = "read accessor tests observe state through"

// productionCallerExempt lists the functions
// TestProductionCodeHasProductionCaller lets stand without a non-test
// caller, each with the reason it stays.
var productionCallerExempt = map[string]string{
	"ai.Trainer.LoaderSize":         testAccessor,
	"clock.Virtual.NowNS":           testAccessor,
	"cluster.NodeSet.UpCount":       testAccessor,
	"costmodel.CheckpointOp.Active": testAccessor,
	"des.Env.NextT":                 testAccessor,
	"des.Env.Pending":               testAccessor,
	"des.Env.Executed":              testAccessor,
	"des.Hold.Armed":                testAccessor,
	"des.Grant.Granted":             testAccessor,
	"des.Resource.InUse":            testAccessor,
	"des.Resource.Cap":              testAccessor,
	"des.Resource.Waiting":          testAccessor,
	"des.Resource.Peak":             testAccessor,
	"des.Resource.Grants":           testAccessor,
	"des.Resource.TotalWaitS":       testAccessor,
	"config.DistSpec.MarshalJSON":   "json.Marshaler",
	"config.DistSpec.UnmarshalJSON": "json.Unmarshaler",
	"scenario.Table.MarshalJSON":    "json.Marshaler",
	"scenario.Table.UnmarshalJSON":  "json.Unmarshaler",
	"sweep.CellError.Unwrap":        "errors.Is/As unwrap it",
}

// TestProductionCodeHasProductionCaller keeps test-only code from
// growing back: every top-level function or method declared in a
// non-test file under internal/ or pkg/ must have its name used in some
// non-test .go file (cmd/, examples/ and benchmark/ included) other than
// at a function declaration. Matching is by name alone, so it
// under-reports (a method shares its name with every other method and
// field so called); what it does report has no production caller at all.
func TestProductionCodeHasProductionCaller(t *testing.T) {
	type decl struct {
		name string
		pos  token.Position
	}
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		checked := strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "pkg/")
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declared[fd.Name] = true
				if checked && fd.Name.Name != "init" {
					decls = append(decls, decl{qualifiedName(f, fd), fset.Position(fd.Name.Pos())})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.name] = true
		short := d.name[strings.LastIndex(d.name, ".")+1:]
		if used[short] || productionCallerExempt[d.name] != "" {
			continue
		}
		t.Errorf("%s:%d: %s is used by no non-test file: give it a production caller, delete it, or exempt it with a reason",
			d.pos.Filename, d.pos.Line, d.name)
	}
	for name := range productionCallerExempt {
		if !seen[name] {
			t.Errorf("productionCallerExempt names %s, which is not declared: drop the entry", name)
		}
	}
}

// qualifiedName is "pkg.Func" or "pkg.Type.Method".
func qualifiedName(f *ast.File, fd *ast.FuncDecl) string {
	name := f.Name.Name + "."
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		typ := fd.Recv.List[0].Type
		for {
			switch tt := typ.(type) {
			case *ast.StarExpr:
				typ = tt.X
				continue
			case *ast.IndexExpr:
				typ = tt.X
				continue
			case *ast.Ident:
				name += tt.Name + "."
			}
			break
		}
	}
	return name + fd.Name.Name
}
