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
