package repro_test

import (
	"math"
	"testing"

	"repro"
)

// Facade coverage for the extension API: every exported entry point added
// beyond the paper's core engine, exercised end to end through package
// repro only.

func TestFacadeSmallWorld(t *testing.T) {
	g := repro.WattsStrogatz(300, 6, 0, 1)
	res := repro.SharedLCC(g, repro.MethodHybrid)
	want := repro.RingLatticeLCC(6)
	for v, c := range res.LCC {
		if math.Abs(c-want) > 1e-12 {
			t.Fatalf("lattice LCC[%d] = %g, closed form %g", v, c, want)
		}
	}
}

func TestFacadeHitRate(t *testing.T) {
	g := repro.RMAT(9, 8, repro.Undirected, 13)
	g = repro.Prepare(g, 4)
	res, err := repro.RunLCC(g, repro.LCCOptions{
		Ranks: 4, Method: repro.MethodHybrid, Caching: true,
		OffsetsCacheBytes: 1 << 16, AdjCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hr := res.HitRate(); hr <= 0 || hr >= 1 {
		t.Errorf("cached run hit rate = %g, want in (0,1)", hr)
	}
	uncached, err := repro.RunLCC(g, repro.LCCOptions{Ranks: 4, Method: repro.MethodHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if hr := uncached.HitRate(); hr != 0 {
		t.Errorf("non-cached hit rate = %g, want 0", hr)
	}
}

func TestFacadePushPull(t *testing.T) {
	g := repro.Prepare(repro.RMAT(10, 8, repro.Undirected, 19), 19)
	pull, err := repro.RunLCC(g, repro.LCCOptions{Ranks: 4, Method: repro.MethodHybrid})
	if err != nil {
		t.Fatal(err)
	}
	push, err := repro.RunLCCPush(g, repro.LCCOptions{Ranks: 4, Method: repro.MethodHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if push.Triangles != pull.Triangles {
		t.Errorf("push triangles = %d, pull = %d", push.Triangles, pull.Triangles)
	}
	for v := range pull.LCC {
		if push.LCC[v] != pull.LCC[v] {
			t.Fatalf("LCC[%d]: push %g != pull %g", v, push.LCC[v], pull.LCC[v])
		}
	}
	directed := repro.Prepare(repro.RMAT(8, 8, repro.Directed, 23), 23)
	if _, err := repro.RunLCCPush(directed, repro.LCCOptions{Ranks: 2}); err == nil {
		t.Error("RunLCCPush accepted a directed graph")
	}
}
