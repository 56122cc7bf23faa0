package bench

import (
	"cmp"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
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

// probeOnly is why a function only a benchmark probe calls stands: the
// census does not count benchmark/ as a caller, because a probe may
// measure only what a binary runs. The benchmark change that deletes
// these probes deletes the functions with them.
const probeOnly = "only a benchmark probe calls it; it goes with the probe"

// productionCallerExempt lists the functions
// TestProductionCodeHasProductionCaller lets stand without a non-test
// user, each with the reason it stays. A method the standard library
// calls through one of stdInterfaces needs no entry.
var productionCallerExempt = map[string]string{
	"ai.Trainer.LoaderSize":   testAccessor,
	"clock.Virtual.NowNS":     testAccessor,
	"cluster.NodeSet.UpCount": testAccessor,
	"des.Env.NextT":           testAccessor,
	"des.Env.Pending":         testAccessor,
	"des.Env.Executed":        testAccessor,
	"des.Hold.Armed":          testAccessor,
	"sweep.CellError.Unwrap":  "errors.Is/As unwrap it",

	"costmodel.Xfer.Start":                probeOnly,
	"costmodel.Model.NewLocalWrite":       probeOnly,
	"costmodel.Model.NewSharedLocalWrite": probeOnly,
	"costmodel.Model.NewEnsembleFetch":    probeOnly,
	"costmodel.EnsembleFetch.Start":       probeOnly,
	"des.NewLPSet":                        probeOnly,
	"des.LPSet.Env":                       probeOnly,
	"des.LPSet.Run":                       probeOnly,
	"des.LPSet.Shutdown":                  probeOnly,
	"mpi.Comm.AllReduceAlgo":              probeOnly,
	"serve.Client.Run":                    probeOnly,
	"sweep.Report.Err":                    probeOnly,
}

// stdInterfaces are the standard-library interfaces through which the
// standard library calls a module type's methods: a method that
// implements one of theirs counts as used.
var stdInterfaces = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"io", "Closer"},
	{"net/http", "Handler"},
}

// TestProductionCodeHasProductionCaller keeps test-only code from
// growing back: every function or method declared in a non-test file
// under internal/ or pkg/ must have a non-test user (cmd/ and examples/
// count; benchmark/ does not, see probeOnly) by the type-checked rules of
// unusedFuncs, or an entry in productionCallerExempt.
func TestProductionCodeHasProductionCaller(t *testing.T) {
	unused, err := unusedFuncs([]callerRoot{{".", "simaibench"}})
	if err != nil {
		t.Fatal(err)
	}
	exempted := map[string]bool{}
	for _, u := range unused {
		if reason := productionCallerExempt[u.name]; reason != "" {
			exempted[u.name] = true
			t.Logf("%s has no non-test user; exempt: %s", u.name, reason)
			continue
		}
		t.Errorf("%s: %s is used by no non-test code: give it a production caller, delete it, or exempt it with a reason",
			u.pos, u.name)
	}
	for name := range productionCallerExempt {
		if !exempted[name] {
			t.Errorf("productionCallerExempt names %s, which is not declared or has a non-test user: drop the entry", name)
		}
	}
}

// TestCallerCensusFixture holds the census to the cases a name match
// gets wrong (testdata/callers): a method whose only caller is a test
// although a production method shares its name, and the implementation
// of an interface method nobody calls, are reported; a generic method
// reached only through an instantiation is not.
func TestCallerCensusFixture(t *testing.T) {
	unused, err := unusedFuncs([]callerRoot{{"testdata/callers", "callers"}})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range unused {
		got = append(got, u.name)
	}
	if want := []string{"fix.Probe.Size", "fix.Quiet.Ping"}; !slices.Equal(got, want) {
		t.Errorf("census reports %v, want %v", got, want)
	}
}

// callerRoot is a module the census loads: its directory and its path.
type callerRoot struct{ dir, path string }

// unusedFunc is one census hit.
type unusedFunc struct {
	name string // "pkg.Func" or "pkg.Type.Method"
	pos  token.Position
}

// unusedFuncs type-checks every non-test package of roots (the standard
// library from source) and returns, in file order, each function and
// method declared under internal/ or pkg/ of roots[0] that no non-test
// code uses. A function is used when
//   - non-test code calls or selects it; a use through a generic
//     instantiation counts for its origin;
//   - it implements a method of a module interface that non-test code
//     calls; or
//   - it implements a method of one of stdInterfaces.
//
// So an interface method nobody calls keeps none of its implementations
// alive.
func unusedFuncs(roots []callerRoot) ([]unusedFunc, error) {
	fset, std := stdSource()
	l := &censusLoader{
		fset: fset,
		std:  std,
		srcs: map[string]censusPkg{},
		pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	for i, r := range roots {
		if err := l.find(r, i == 0); err != nil {
			return nil, err
		}
	}
	for path := range l.srcs {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}

	used := map[*types.Func]bool{}
	called := map[*types.Func]bool{} // module interface methods non-test code calls
	for _, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		used[fn] = true
		if typ := recvType(fn); typ != nil && types.IsInterface(typ) && fn.Pkg() != nil && l.pkgs[fn.Pkg().Path()] != nil {
			called[fn] = true
		}
	}
	var stdIfaces []*types.Interface
	for _, s := range stdInterfaces {
		scope := types.Universe
		if s.pkg != "" {
			p, err := l.std.Import(s.pkg)
			if err != nil {
				return nil, err
			}
			scope = p.Scope()
		}
		stdIfaces = append(stdIfaces, scope.Lookup(s.name).Type().Underlying().(*types.Interface))
	}
	implemented := func(fn *types.Func) bool {
		for m := range called {
			if m.Name() == fn.Name() && implements(fn, recvType(m).Underlying().(*types.Interface)) {
				return true
			}
		}
		for _, iface := range stdIfaces {
			for i := range iface.NumMethods() {
				if iface.Method(i).Name() == fn.Name() && implements(fn, iface) {
					return true
				}
			}
		}
		return false
	}

	var out []unusedFunc
	for _, d := range l.decls {
		if !used[d] && !implemented(d) {
			out = append(out, unusedFunc{funcName(d), fset.Position(d.Pos())})
		}
	}
	slices.SortFunc(out, func(a, b unusedFunc) int {
		return cmp.Or(strings.Compare(a.pos.Filename, b.pos.Filename), a.pos.Line-b.pos.Line)
	})
	return out, nil
}

// stdSource is the standard library's source importer and its file
// set, shared by every census so each package is type-checked once.
var stdSource = sync.OnceValues(func() (*token.FileSet, types.ImporterFrom) {
	fset := token.NewFileSet()
	return fset, importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
})

// implements reports whether the receiver of method fn, or a pointer to
// it, implements iface. Methods of generic types never do: an
// uninstantiated type cannot be asked.
func implements(fn *types.Func, iface *types.Interface) bool {
	typ := recvType(fn)
	if typ == nil {
		return false
	}
	if n, ok := typ.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return false
	}
	return types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface)
}

// recvType is fn's receiver type without its pointer, or nil for a
// plain function.
func recvType(fn *types.Func) types.Type {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return p.Elem()
	}
	return recv.Type()
}

// funcName is "pkg.Func" or "pkg.Type.Method".
func funcName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if typ := recvType(fn); typ != nil {
		name += typ.(*types.Named).Obj().Name() + "."
	}
	return name + fn.Name()
}

// censusPkg is one non-test package the census type-checks.
type censusPkg struct {
	dir     string
	files   []string // non-test Go files under the default build context
	checked bool     // its functions must have a non-test user
}

// censusLoader type-checks the module packages it has found, sharing
// one types.Info, and hands every other import to the standard
// library's source importer.
type censusLoader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	srcs  map[string]censusPkg
	pkgs  map[string]*types.Package
	info  *types.Info
	decls []*types.Func // the functions and methods the census checks
}

// find registers every package of root r; a directory holding its own
// go.mod is another module and is skipped, as are testdata and dot
// directories. With checked set, the packages under internal/ and pkg/
// are the ones checked.
func (l *censusLoader) find(r callerRoot, checked bool) error {
	return filepath.WalkDir(r.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != r.dir {
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(path, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(r.dir, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		importPath := r.path
		if rel != "." {
			importPath += "/" + rel
		}
		l.srcs[importPath] = censusPkg{
			dir:     path,
			files:   bp.GoFiles,
			checked: checked && (strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "pkg/")),
		}
		return nil
	})
}

func (l *censusLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *censusLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	src, ok := l.srcs[path]
	if !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	var files []*ast.File
	for _, name := range src.files {
		f, err := parser.ParseFile(l.fset, filepath.Join(src.dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	if src.checked {
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name != "init" {
					l.decls = append(l.decls, l.info.Defs[fd.Name].(*types.Func))
				}
			}
		}
	}
	return p, nil
}

// citingDocs are the documents whose Test/Fuzz/Benchmark citations
// TestDocsCiteExistingTests resolves.
var citingDocs = []string{
	"ARCHITECTURE.md",
	"EXPERIMENTS.md",
	".github/workflows/ci.yml",
	".claude/skills/verify/SKILL.md",
}

// testCitation matches a cited test name: the prefix, then an upper-case
// letter, digit, underscore or brace group, with {a,b} alternatives and
// a trailing * (a prefix) allowed.
var testCitation = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)(?:[A-Z0-9_]|\{[A-Za-z0-9_,]*\})(?:[A-Za-z0-9_]|\{[A-Za-z0-9_,]*\})*\*?`)

// TestDocsCiteExistingTests keeps the docs from citing a test that was
// renamed or deleted: every Test…/Fuzz…/Benchmark… name in citingDocs
// must be declared in some _test.go file of the repo. {,Hier} expands to
// each alternative, and a trailing * matches any test with that prefix.
func TestDocsCiteExistingTests(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				declared[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range citingDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, cite := range testCitation.FindAllString(line, -1) {
				for _, name := range expandBraces(cite) {
					if !citedTestExists(declared, name) {
						t.Errorf("%s:%d: cites %s, which no _test.go declares", doc, i+1, name)
					}
				}
			}
		}
	}
}

// expandBraces expands every {a,b,…} group of s into each alternative.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := open + strings.IndexByte(s[open:], '}')
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[end+1:])...)
	}
	return out
}

// citedTestExists reports whether name, or with a trailing * any name
// it prefixes, is declared.
func citedTestExists(declared map[string]bool, name string) bool {
	prefix, ok := strings.CutSuffix(name, "*")
	if !ok {
		return declared[name]
	}
	for d := range declared {
		if strings.HasPrefix(d, prefix) {
			return true
		}
	}
	return false
}
