package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
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
