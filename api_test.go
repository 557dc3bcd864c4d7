package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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

func TestFacadeTriCAgrees(t *testing.T) {
	g := repro.RMAT(9, 8, repro.Undirected, 3)
	g = repro.Prepare(g, 1)
	a, err := repro.RunLCC(g, repro.LCCOptions{Ranks: 4, Method: repro.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := repro.RunTriC(g, repro.TriCOptions{Ranks: 4, Method: repro.MethodHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if a.Triangles != b.Triangles {
		t.Errorf("async %d vs TriC %d", a.Triangles, b.Triangles)
	}
}

func TestFacadeCostModel(t *testing.T) {
	m := repro.DefaultCostModel()
	if m.RemoteLatency != 2000 {
		t.Errorf("default α = %v ns, want 2000 (the paper's Aries figure)", m.RemoteLatency)
	}
	// A custom model flows through to results: zero-cost network makes
	// remote reads free, halving-ish the simulated time.
	g := repro.RMAT(9, 8, repro.Undirected, 4)
	g = repro.Prepare(g, 2)
	slow, err := repro.RunLCC(g, repro.LCCOptions{Ranks: 4, Method: repro.MethodHybrid, DoubleBuffer: true, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	fast := m
	fast.RemoteLatency = 1
	fast.RemoteBytePeriod = 0
	quick, err := repro.RunLCC(g, repro.LCCOptions{Ranks: 4, Method: repro.MethodHybrid, DoubleBuffer: true, Model: fast})
	if err != nil {
		t.Fatal(err)
	}
	if quick.SimTime >= slow.SimTime {
		t.Errorf("faster network did not reduce simulated time: %v vs %v", quick.SimTime, slow.SimTime)
	}
	if quick.Triangles != slow.Triangles {
		t.Error("cost model changed the computed result")
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
// clampi.Config and the baselines' tric, disttc and grid Options must be
// set by a non-test file outside the type's own package, under cmd/,
// examples/, internal/ or bench/. A field is set by a key of a composite
// literal of its type (lcc.Options{…}, repro.LCCOptions{…},
// clampi.Config{…}, or an element of a slice or map literal of one), or by
// an assignment to a selector of its name in a file importing the type's
// package (o.Workers = …). A value that only forwards a field of a
// parameter of a checked type (Buckets: opt.X) sets nothing unless that
// field is set itself.
func TestConfigFieldsHaveCallers(t *testing.T) {
	home := map[string]string{
		"lcc.Options": "internal/lcc", "lcc.SnapshotOptions": "internal/lcc", "clampi.Config": "internal/clampi",
		"tric.Options": "internal/tric", "disttc.Options": "internal/disttc", "grid.Options": "internal/grid",
	}
	// The facade's aliases of checked types.
	facade := map[string]string{"repro.LCCOptions": "lcc.Options", "repro.TriCOptions": "tric.Options"}
	aliased := map[string]bool{}
	for _, typ := range facade {
		aliased[typ] = true
	}
	allow := map[string]bool{
		// Set by clampi's own tests only: TestVictimOrderDigest's conflict
		// and positional rows pin them.
		"clampi.Config.Assoc": true, "clampi.Config.PosWeight": true,
		// The baselines' host worker bound: the golden worker sweep and
		// TestBaselineSimTimeBits set it to pin bit-identical results at
		// every worker count; programs take the GOMAXPROCS default.
		"tric.Options.Workers": true, "disttc.Options.Workers": true, "grid.Options.Workers": true,
		// TestChargeTapeDigests records grid's charge tape through it.
		"grid.Options.ChargeObserver": true,
		// TestFaultEquivalence and TestCrashFailFastDeterminism's grid row
		// run the 2D engine under fault schedules.
		"grid.Options.Faults": true,
	}

	type file struct {
		dir string
		ast *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "examples", "internal", "bench"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, 0)
			files = append(files, file{filepath.ToSlash(filepath.Dir(p)), f})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// typeOf names the type e spells in a file of package pkg: "lcc.Options"
	// for Options in package lcc, lcc.Options and repro.LCCOptions alike.
	typeOf := func(e ast.Expr, pkg string) string {
		if s, ok := e.(*ast.StarExpr); ok {
			e = s.X
		}
		switch e := e.(type) {
		case *ast.Ident:
			return pkg + "." + e.Name
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok {
				if typ := facade[x.Name+"."+e.Sel.Name]; typ != "" {
					return typ
				}
				return x.Name + "." + e.Sel.Name
			}
		}
		return ""
	}

	fields := map[string][]string{} // checked type → its field names, in order
	isField := map[string]bool{}    // "lcc.Options.Workers"
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			typ := f.ast.Name.Name + "." + ts.Name.Name
			if st, isStruct := ts.Type.(*ast.StructType); isStruct && home[typ] == f.dir {
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						fields[typ] = append(fields[typ], name.Name)
						isField[typ+"."+name.Name] = true
					}
				}
			}
			return false
		})
	}
	if len(fields) != len(home) {
		t.Fatalf("found %d of the %d checked types", len(fields), len(home))
	}

	// Every site that sets a field, with the field its value forwards, if any.
	type site struct{ field, from string }
	var sites []site
	for _, f := range files {
		pkg := f.ast.Name.Name
		imports := map[string]bool{}
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			imports[path.Base(p)] = true
		}
		// checked names the type e spells if it is checked here: a checked
		// type outside its own package.
		checked := func(e ast.Expr) string {
			if typ := typeOf(e, pkg); home[typ] != "" && home[typ] != f.dir {
				return typ
			}
			return ""
		}
		for _, d := range f.ast.Decls {
			params := map[string]string{} // parameter of a checked type → the type
			if fn, ok := d.(*ast.FuncDecl); ok {
				for _, fl := range []*ast.FieldList{fn.Recv, fn.Type.Params} {
					if fl == nil {
						continue
					}
					for _, p := range fl.List {
						if typ := typeOf(p.Type, pkg); home[typ] != "" {
							for _, name := range p.Names {
								params[name.Name] = typ
							}
						}
					}
				}
			}
			forwards := func(v ast.Expr) string {
				if s, ok := v.(*ast.SelectorExpr); ok {
					if x, ok := s.X.(*ast.Ident); ok && isField[params[x.Name]+"."+s.Sel.Name] {
						return params[x.Name] + "." + s.Sel.Name
					}
				}
				return ""
			}
			literal := func(typ string, lit *ast.CompositeLit) {
				for _, el := range lit.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							sites = append(sites, site{typ + "." + k.Name, forwards(kv.Value)})
						}
					}
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if typ := checked(n.Type); typ != "" {
						literal(typ, n)
					}
					// A slice, array or map literal's elements may elide the type.
					var elt ast.Expr
					switch lt := n.Type.(type) {
					case *ast.ArrayType:
						elt = lt.Elt
					case *ast.MapType:
						elt = lt.Value
					}
					if typ := checked(elt); typ != "" {
						for _, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								el = kv.Value
							}
							if lit, ok := el.(*ast.CompositeLit); ok && lit.Type == nil {
								literal(typ, lit)
							}
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok {
							continue
						}
						from := ""
						if len(n.Rhs) == len(n.Lhs) {
							from = forwards(n.Rhs[i])
						}
						for typ, dir := range home {
							pkgName, _, _ := strings.Cut(typ, ".")
							imported := imports[pkgName] || imports["repro"] && aliased[typ]
							if dir != f.dir && imported && isField[typ+"."+sel.Sel.Name] {
								sites = append(sites, site{typ + "." + sel.Sel.Name, from})
							}
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
	types := make([]string, 0, len(home))
	for typ := range home {
		types = append(types, typ)
	}
	sort.Strings(types)
	for _, typ := range types {
		for _, name := range fields[typ] {
			if key := typ + "." + name; !set[key] && !allow[key] {
				orphans = append(orphans, key)
			}
		}
	}
	if len(orphans) > 0 {
		t.Errorf("fields no program outside their package sets: %v — give each a caller or delete it", orphans)
	}
}

// TestInternalFuncsHaveCallers keeps internal/ from carrying API that only
// tests call: every exported func and method a non-test file under internal/
// declares must be referenced by another non-test file of the repository
// (bench/ included). A func F of package p counts as referenced by p.F in a
// file importing p, or by F in another file of p other than as a declared
// name (a method F is not a call of F); a method M by any selector x.M whose
// x is not an imported package's name, so a name two types share only makes
// the check more lenient, and methods the standard library calls through an
// interface (errors.Is included) are exempt.
// testOnly lists the exports kept for tests alone, each with the tests that
// need it; an export only its own package's tests need belongs in a _test.go
// file of that package instead.
func TestInternalFuncsHaveCallers(t *testing.T) {
	testOnly := map[string]string{
		"disttc.Run":                  "bench_test.go and intersect_engines_test.go take its error; programs call MustRun",
		"fault.ChaosSpec":             "the fault, rma and serve tests and fault_equiv_test.go build the chaos preset by seed",
		"graph.Graph.Clone":           "part's TestExtractBulkMatchesPerVertex keeps a pristine copy to detect aliasing",
		"graph.Graph.Validate":        "the structural oracle the graph and gen tests check every built graph with",
		"intersect.Count":             "the method-dispatch reference the intersect equivalence, elements, dense and fuzz tests hold Scratch.Count to",
		"intersect.Elements":          "the listing reference the intersect equivalence, elements and fuzz tests hold Scratch.Elements to",
		"intersect.SSI":               "the Algorithm 2 reference loop the intersect equivalence tests and bench_test.go compare against",
		"intersect.SetDebugChecks":    "intersect_engines_test.go and equiv_test.go arm the orientation assertion",
		"lcc.Snapshot.CorruptForTest": "the fault hook behind serve's CorruptResident and lcc's integrity tests",
		"lcc.Snapshot.StorageRepr":    "storage_equiv_test.go checks the representation a memory budget chose",
	}
	stdIface := map[string]bool{"Error": true, "String": true, "Unwrap": true, "Is": true}

	type decl struct{ key, name, file string }
	var decls []decl
	refs := map[string]map[string]bool{} // file → "repro/internal/p.F" and ".M" keys it references
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		// bench/out holds the benchmark's working files, not its source.
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "out") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		self := path.Join("repro", path.Dir(p))
		imports := map[string]string{} // local name → import path
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		used := map[string]bool{}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// A declaration's own name is not a reference to it: a
				// method M would otherwise count as a call of a package
				// func M declared in another file.
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				// A package-qualified name (slices.Contains) is no method
				// reference: only a selector on a value counts as x.M.
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
				} else {
					used["."+n.Sel.Name] = true
					ast.Inspect(n.X, visit)
				}
				return false
			case *ast.Ident:
				used[self+"."+n.Name] = true
			}
			return true
		}
		ast.Inspect(f, visit)
		refs[p] = used
		if !strings.HasPrefix(p, "internal/") {
			return nil
		}
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			if fn.Recv == nil {
				decls = append(decls, decl{self + "." + fn.Name.Name, f.Name.Name + "." + fn.Name.Name, p})
				continue
			}
			recv := fn.Recv.List[0].Type
			if s, ok := recv.(*ast.StarExpr); ok {
				recv = s.X
			}
			if ix, ok := recv.(*ast.IndexExpr); ok {
				recv = ix.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.IsExported() && !stdIface[fn.Name.Name] {
				decls = append(decls, decl{"." + fn.Name.Name, f.Name.Name + "." + id.Name + "." + fn.Name.Name, p})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
		called := false
		for file, used := range refs {
			if file != d.file && used[d.key] {
				called = true
				break
			}
		}
		if _, kept := testOnly[d.name]; !called && !kept {
			orphans = append(orphans, d.name)
		} else if called && kept {
			t.Errorf("%s is listed as test-only but a program references it: drop it from testOnly", d.name)
		}
	}
	for name := range testOnly {
		if !declared[name] {
			t.Errorf("testOnly lists %s, which no internal/ file declares: drop it", name)
		}
	}
	if len(orphans) > 0 {
		sort.Strings(orphans)
		t.Errorf("exported internal/ funcs no other non-test file references: %v — give each a caller or delete it", orphans)
	}
}
