package repro_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro"
)

func TestFacadeBuildAndRun(t *testing.T) {
	g, err := repro.BuildGraph(repro.Undirected, 4, []repro.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 2, Dst: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.RunLCC(g, repro.LCCOptions{Ranks: 2, Method: repro.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 1 {
		t.Errorf("Triangles = %d, want 1", res.Triangles)
	}
	ref := repro.SharedLCC(g, repro.MethodHybrid)
	for v := range res.LCC {
		if math.Abs(res.LCC[v]-ref.LCC[v]) > 1e-12 {
			t.Errorf("LCC[%d] = %v, ref %v", v, res.LCC[v], ref.LCC[v])
		}
	}
}

// TestFacadeFuncsHaveCallers keeps the facade from growing back without a
// caller: every exported func api.go declares must be called as repro.F by
// a program under examples/ or by an Example in example_test.go.
func TestFacadeFuncsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	api, err := parser.ParseFile(fset, "api.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	callers, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(callers) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	used := map[string]bool{}
	for _, path := range append(callers, "example_test.go") {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "repro" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	var orphans []string
	for _, d := range api.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() && !used[fn.Name.Name] {
			orphans = append(orphans, fn.Name.Name)
		}
	}
	if len(orphans) > 0 {
		t.Errorf("api.go funcs no example calls: %v — add a caller or delete them", orphans)
	}
}

// TestConfigFieldsHaveCallers keeps the configuration structs from carrying
// knobs nobody turns: every field of lcc.Options, lcc.SnapshotOptions,
// clampi.Config and the baselines' tric and grid Options must be
// set by a non-test file outside the type's own package (bench/ included).
// References resolve by type (types.Info.Uses): a field is set by a key of a
// composite literal that names it (lcc.Options{…}, repro.LCCOptions{…}, an
// element of a slice or map literal of one) or by an assignment to it
// (o.Workers = …), never by another type's field of the same name. A value
// that only forwards a checked field (Buckets: opt.X) sets nothing unless
// that field is set itself.
func TestConfigFieldsHaveCallers(t *testing.T) {
	checked := map[string][]string{
		"repro/internal/lcc":    {"Options", "SnapshotOptions"},
		"repro/internal/clampi": {"Config"},
		"repro/internal/tric":   {"Options"},
		"repro/internal/grid":   {"Options"},
	}
	allow := map[string]bool{
		// Set by clampi's own tests only: TestVictimOrderDigest's conflict
		// and positional rows pin them.
		"clampi.Config.Assoc": true, "clampi.Config.PosWeight": true,
		// The calibration: programs run at rma.DefaultCostModel, while
		// TestEngineCustomModelPropagates varies it and ROADMAP's "double β"
		// law needs it.
		"lcc.Options.Model": true,
		// The baselines' host worker bound: the golden worker sweep and
		// TestBaselineSimTimeBits set it to pin bit-identical results at
		// every worker count; programs take the GOMAXPROCS default.
		"tric.Options.Workers": true, "grid.Options.Workers": true,
		// TestChargeTapeDigests records grid's charge tape through it.
		"grid.Options.ChargeObserver": true,
		// TestFaultEquivalence and TestCrashFailFastDeterminism's grid row
		// run the 2D engine under fault schedules.
		"grid.Options.Faults": true,
	}
	pkgs := typeCheckRepo(t)

	fieldKey := map[*types.Var]string{} // a checked field → "lcc.Options.Workers"
	var keys []string
	found := 0
	for _, p := range pkgs {
		for _, typ := range checked[p.pkg.Path()] {
			obj := p.pkg.Scope().Lookup(typ)
			if obj == nil {
				t.Fatalf("%s declares no %s", p.pkg.Path(), typ)
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				t.Fatalf("%s.%s is not a struct", p.pkg.Name(), typ)
			}
			found++
			for i := 0; i < st.NumFields(); i++ {
				key := p.pkg.Name() + "." + typ + "." + st.Field(i).Name()
				fieldKey[st.Field(i)] = key
				keys = append(keys, key)
			}
		}
	}
	want := 0
	for _, typs := range checked {
		want += len(typs)
	}
	if found != want {
		t.Fatalf("found %d of the %d checked types", found, want)
	}
	field := func(info *types.Info, id *ast.Ident) string {
		if v, ok := info.Uses[id].(*types.Var); ok {
			return fieldKey[v.Origin()]
		}
		return ""
	}

	// Every site that sets a field, with the field its value forwards, if any.
	type site struct{ field, from string }
	var sites []site
	for _, p := range pkgs {
		forwards := func(v ast.Expr) string {
			if s, ok := v.(*ast.SelectorExpr); ok {
				return field(p.info, s.Sel)
			}
			return ""
		}
		add := func(id *ast.Ident, v ast.Expr) {
			if f := field(p.info, id); f != "" && p.info.Uses[id].Pkg() != p.pkg {
				sites = append(sites, site{f, forwards(v)})
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if k, ok := n.Key.(*ast.Ident); ok {
						add(k, n.Value)
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							var v ast.Expr
							if len(n.Rhs) == len(n.Lhs) {
								v = n.Rhs[i]
							}
							add(sel.Sel, v)
						}
					}
				}
				return true
			})
		}
	}

	set := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, s := range sites {
			if !set[s.field] && (s.from == "" || set[s.from]) {
				set[s.field], changed = true, true
			}
		}
	}
	var orphans []string
	for _, key := range keys {
		if !set[key] && !allow[key] {
			orphans = append(orphans, key)
		} else if set[key] && allow[key] {
			t.Errorf("%s is allowed as test-only but a program sets it: drop it from allow", key)
		}
	}
	if len(orphans) > 0 {
		sort.Strings(orphans)
		t.Errorf("fields no program outside their package sets: %v — give each a caller or delete it", orphans)
	}
}

// TestInternalFuncsHaveCallers keeps internal/ from carrying API that only
// tests call: every exported func and method a non-test file under internal/
// declares must be referenced by a non-test file of the repository (bench/
// included) outside its own body. References resolve by type
// (types.Info.Uses), so a name two declarations share counts for the one it
// names only. A method also counts as referenced when its type implements an
// interface whose method of that name is referenced; methods the standard
// library calls through an interface (errors.Is included) are exempt.
// testOnly lists the exports kept for tests alone, each with the tests that
// need it; an export only its own package's tests need belongs in a _test.go
// file of that package instead.
func TestInternalFuncsHaveCallers(t *testing.T) {
	testOnly := map[string]string{
		"graph.Graph.Clone":                 "part's TestExtractBulkMatchesPerVertex keeps a pristine copy to detect aliasing",
		"graph.Graph.Validate":              "the structural oracle the graph and gen tests check every built graph with",
		"intersect.Count":                   "the method-dispatch reference the intersect equivalence, elements, dense and fuzz tests hold Scratch.Count to",
		"intersect.DenseSet.CorruptForTest": "lcc's TestDamagedIndexIsCaughtAndHarmless and intersect's FuzzIntersectKernels damage dense sets with it",
		"intersect.Elements":                "the listing reference the intersect equivalence, elements and fuzz tests hold Scratch.Elements to",
		"intersect.SetDebugChecks":          "intersect_engines_test.go and equiv_test.go arm the orientation assertion",
		"intersect.Slab.MemBytes":           "lcc's TestWarmIndexMatchesFresh (indexCensus) and intersect's TestSlabCarves count the index's slab bytes",
		"lcc.Snapshot.CorruptForTest":       "the fault hook behind serve's CorruptResident and lcc's integrity tests",
		"lcc.Snapshot.StorageRepr":          "storage_equiv_test.go checks the representation a memory budget chose",
	}
	stdIface := map[string]bool{"Error": true, "String": true, "Unwrap": true, "Is": true}

	pkgs := typeCheckRepo(t)
	uses := map[*types.Func][]token.Pos{}        // a func → where non-test files reference it
	ifaceUses := map[string][]*types.Interface{} // method name → the interfaces whose method of that name is referenced
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			uses[fn] = append(uses[fn], id.Pos())
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					ifaceUses[fn.Name()] = append(ifaceUses[fn.Name()], it)
				}
			}
		}
	}

	var orphans []string
	declared := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.pkg.Path(), "repro/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				name := p.pkg.Name() + "." + fn.Name()
				var named *types.Named
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					rt := recv.Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					named, _ = rt.(*types.Named)
					if named == nil || !named.Obj().Exported() || stdIface[fn.Name()] {
						continue
					}
					name = p.pkg.Name() + "." + named.Obj().Name() + "." + fn.Name()
				}
				declared[name] = true
				// A func's calls of itself are no reference.
				called := false
				for _, pos := range uses[fn] {
					called = called || pos < fd.Pos() || pos >= fd.End()
				}
				if named != nil && named.TypeParams().Len() == 0 {
					for _, it := range ifaceUses[fn.Name()] {
						called = called || types.Implements(named, it) || types.Implements(types.NewPointer(named), it)
					}
				}
				if _, kept := testOnly[name]; !called && !kept {
					orphans = append(orphans, name)
				} else if called && kept {
					t.Errorf("%s is listed as test-only but a program references it: drop it from testOnly", name)
				}
			}
		}
	}
	for name := range testOnly {
		if !declared[name] {
			t.Errorf("testOnly lists %s, which no internal/ file declares: drop it", name)
		}
	}
	if len(orphans) > 0 {
		sort.Strings(orphans)
		t.Errorf("exported internal/ funcs no non-test code references: %v — give each a caller or delete it", orphans)
	}
}

// repoPackage is one non-test package of the repository, type-checked from
// source.
type repoPackage struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

var repoTypes = sync.OnceValues(loadRepoTypes)

// typeCheckRepo returns every non-test package of the repository — the root
// module's and bench/'s — type-checked from source in one universe, so an
// object a reference resolves to is the declaration itself. The standard
// library comes from export data that one go list builds. The check runs
// once per test binary.
func typeCheckRepo(t *testing.T) []*repoPackage {
	t.Helper()
	pkgs, err := repoTypes()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func loadRepoTypes() ([]*repoPackage, error) {
	fset := token.NewFileSet()
	byPath := map[string]*repoPackage{}
	var paths []string
	std := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		// bench/out holds the benchmark's working files, not its source.
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "out" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		// bench/ is module repro/bench, so every directory's import path is
		// repro/<dir>.
		ip := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		if byPath[ip] == nil {
			byPath[ip] = &repoPackage{}
			paths = append(paths, ip)
		}
		byPath[ip].files = append(byPath[ip].files, f)
		for _, im := range f.Imports {
			if q, _ := strconv.Unquote(im.Path.Value); q != "repro" && !strings.HasPrefix(q, "repro/") {
				std[q] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	args := []string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	for q := range std {
		args = append(args, q)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if q, file, ok := strings.Cut(line, " "); ok {
			export[q] = file
		}
	}
	stdlib := importer.ForCompiler(fset, "gc", func(q string) (io.ReadCloser, error) {
		if export[q] == "" {
			return nil, fmt.Errorf("no export data for %s", q)
		}
		return os.Open(export[q])
	})

	var imp importerFunc
	imp = func(q string) (*types.Package, error) {
		p := byPath[q]
		if p == nil {
			return stdlib.Import(q)
		}
		if p.pkg == nil {
			p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
			conf := types.Config{Importer: imp}
			pkg, err := conf.Check(q, fset, p.files, p.info)
			if err != nil {
				return nil, err
			}
			p.pkg = pkg
		}
		return p.pkg, nil
	}
	pkgs := make([]*repoPackage, len(paths))
	for i, q := range paths {
		if _, err := imp(q); err != nil {
			return nil, err
		}
		pkgs[i] = byPath[q]
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
