package lcc

import (
	"fmt"
	"strings"
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
	for _, policy := range []ScorePolicy{ScoreLRU, ScoreDegree} {
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
		ScoreLRU: "lru+positional", ScoreDegree: "degree", ScorePolicy(99): "unknown",
	} {
		if got := policy.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", policy, got, want)
		}
	}
}

// TestUnknownScorePolicyRejected holds launch to rejecting a policy outside
// ScoreLRU and ScoreDegree, which would otherwise run unscored as LRU.
func TestUnknownScorePolicyRejected(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 8, graph.Undirected, 37))
	for _, policy := range []ScorePolicy{2, 3, 255} {
		if _, err := Run(g, pressuredOptions(g, 4, policy)); err == nil {
			t.Errorf("policy %d: Run succeeded, want an error", policy)
		} else if !strings.Contains(err.Error(), fmt.Sprint(uint8(policy))) {
			t.Errorf("policy %d: error %q does not name the value", policy, err)
		}
	}
}
