package lcc

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
)

// pressuredOptions returns a caching configuration with heavy C_adj
// eviction pressure, where the score policy actually matters.
func pressuredOptions(g *graph.Graph, p int, policy ScorePolicy) Options {
	return Options{
		Ranks: p, Method: intersect.MethodHybrid, DoubleBuffer: true,
		Caching:           true,
		OffsetsCacheBytes: 16 * g.NumVertices(),
		AdjCacheBytes:     4 * g.NumArcs() / 8, // far below the working set
		AdjScorePolicy:    policy,
	}
}

func TestAllScorePoliciesCorrect(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 16, graph.Undirected, 33))
	want := SharedLCC(g, intersect.MethodHybrid)
	for _, policy := range []ScorePolicy{ScoreLRU, ScoreDegree, ScoreCostBenefit, ScoreDegreeRecency} {
		res, err := Run(g, pressuredOptions(g, 8, policy))
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if res.Triangles != want.Triangles {
			t.Errorf("policy %v changed the triangle count: %d vs %d",
				policy, res.Triangles, want.Triangles)
		}
	}
}

func TestDegreeBeatsLRUUnderPressure(t *testing.T) {
	// §III-B-2's claim, under eviction pressure on a power-law graph.
	g := gen.RMAT(gen.DefaultRMAT(11, 16, graph.Undirected, 34))
	lru, err := Run(g, pressuredOptions(g, 8, ScoreLRU))
	if err != nil {
		t.Fatal(err)
	}
	deg, err := Run(g, pressuredOptions(g, 8, ScoreDegree))
	if err != nil {
		t.Fatal(err)
	}
	_, lruMiss := lru.CacheMissRates()
	_, degMiss := deg.CacheMissRates()
	if degMiss >= lruMiss {
		t.Errorf("degree scores did not lower the C_adj miss rate: %.3f vs LRU %.3f", degMiss, lruMiss)
	}
}

func TestScorePolicyString(t *testing.T) {
	for policy, want := range map[ScorePolicy]string{
		ScoreLRU: "lru+positional", ScoreDegree: "degree",
		ScoreCostBenefit: "cost-benefit", ScoreDegreeRecency: "degree+recency",
		ScorePolicy(99): "unknown",
	} {
		if got := policy.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", policy, got, want)
		}
	}
}

func TestCostBenefitFavoursSmallEntries(t *testing.T) {
	// On a graph with one giant hub and many small vertices under severe
	// pressure, cost-benefit keeps small lists while degree keeps the
	// hub: their hit patterns must differ, with degree ahead on a
	// hub-reuse workload.
	g := gen.BarabasiAlbert(4096, 8, graph.Undirected, 35)
	g = gen.Prepare(g, 36)
	cb, err := Run(g, pressuredOptions(g, 8, ScoreCostBenefit))
	if err != nil {
		t.Fatal(err)
	}
	deg, err := Run(g, pressuredOptions(g, 8, ScoreDegree))
	if err != nil {
		t.Fatal(err)
	}
	_, cbMiss := cb.CacheMissRates()
	_, degMiss := deg.CacheMissRates()
	if degMiss > cbMiss {
		t.Errorf("degree (%.3f) should beat cost-benefit (%.3f) on hub reuse", degMiss, cbMiss)
	}
}
