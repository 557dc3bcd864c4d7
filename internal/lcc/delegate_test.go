package lcc

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
)

func TestBuildDelegationBudget(t *testing.T) {
	g := gen.Prepare(gen.BarabasiAlbert(1<<10, 8, graph.Undirected, 3), 3)
	for _, budget := range []int{0, 100, 1 << 10, 1 << 14, 1 << 30} {
		d := BuildDelegation(g, budget)
		if d.Bytes() > budget && budget > 0 {
			t.Errorf("budget %d: delegation used %d bytes", budget, d.Bytes())
		}
		if budget <= 0 && d.Len() != 0 {
			t.Errorf("budget %d: delegated %d vertices, want 0", budget, d.Len())
		}
	}
	// An unlimited budget replicates every vertex.
	d := BuildDelegation(g, 1<<30)
	if d.Len() != g.NumVertices() {
		t.Errorf("unlimited budget delegated %d of %d vertices", d.Len(), g.NumVertices())
	}
}

func TestBuildDelegationPicksHubsFirst(t *testing.T) {
	// A star plus a few stray edges: the center must be the first pick.
	edges := []graph.Edge{}
	for i := 1; i <= 20; i++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.V(i)})
	}
	edges = append(edges,
		graph.Edge{Src: 1, Dst: 2},
		graph.Edge{Src: 3, Dst: 4},
		graph.Edge{Src: 5, Dst: 6})
	g := graph.MustBuild(graph.Undirected, 21, edges)
	d := BuildDelegation(g, delegationEntryOverhead+4*g.OutDegree(0))
	if d.Len() != 1 {
		t.Fatalf("delegated %d vertices, want exactly the hub", d.Len())
	}
	if !d.Has(0) {
		t.Error("hub vertex 0 not delegated")
	}
}

func TestDelegationLookupNilSafe(t *testing.T) {
	var d *Delegation
	if d.Has(3) {
		t.Error("nil delegation claimed a hit")
	}
	if d.Len() != 0 || d.Bytes() != 0 {
		t.Error("nil delegation has nonzero size")
	}
}

// TestDelegatedRunSameResults: delegation must never change LCC scores or
// triangle counts, only where reads are served.
func TestDelegatedRunSameResults(t *testing.T) {
	for name, g := range pushTestGraphs(t) {
		base, err := Run(g, Options{Ranks: 4, Method: intersect.MethodHybrid})
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{0, 1 << 10, 1 << 16, 1 << 24} {
			res, err := Run(g, Options{Ranks: 4, Method: intersect.MethodHybrid, DelegateBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			if !lccClose(res.LCC, base.LCC) || res.Triangles != base.Triangles {
				t.Errorf("%s budget %d: delegated run changed results", name, budget)
			}
		}
	}
}

// TestDelegationReducesRemoteReads: every delegated hit is a remote read
// saved; the sum remote+delegated must equal the non-delegated remote
// count, and the delegated share must be large on a hub-heavy graph.
func TestDelegationReducesRemoteReads(t *testing.T) {
	g := gen.Prepare(gen.BarabasiAlbert(1<<11, 8, graph.Undirected, 5), 5)
	const ranks = 8
	plain, err := Run(g, Options{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	deleg, err := Run(g, Options{Ranks: ranks, DelegateBytes: int(g.CSRSizeBytes() / 4)})
	if err != nil {
		t.Fatal(err)
	}
	var plainRemote, delegRemote, delegated int64
	for i := 0; i < ranks; i++ {
		plainRemote += plain.PerRank[i].RemoteReads
		delegRemote += deleg.PerRank[i].RemoteReads
		delegated += deleg.PerRank[i].DelegatedReads
	}
	if delegRemote+delegated != plainRemote {
		t.Errorf("remote %d + delegated %d != plain remote %d", delegRemote, delegated, plainRemote)
	}
	// A quarter of the graph's bytes covers the hubs; on a BA graph the
	// hubs draw disproportionately many accesses, so the saved share must
	// clearly exceed the byte share would predict under uniform access
	// spread over this heavy-tailed degree sequence.
	if share := float64(delegated) / float64(plainRemote); share < 0.2 {
		t.Errorf("delegated share = %.2f, want > 0.2 with a quarter-size replica", share)
	}
	if deleg.SimTime >= plain.SimTime {
		t.Error("delegation did not reduce the simulated time")
	}
	if deleg.DelegatedVertices == 0 || deleg.DelegationBytes == 0 {
		t.Error("result does not report the delegation size")
	}
}

// TestDelegationComposesWithCaching: delegated vertices never reach the
// caches, and the combined run still returns identical results.
func TestDelegationComposesWithCaching(t *testing.T) {
	g := gen.Prepare(gen.RMAT(gen.DefaultRMAT(11, 8, graph.Undirected, 29)), 29)
	base, err := Run(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	both, err := Run(g, Options{
		Ranks: 4, Caching: true,
		OffsetsCacheBytes: 1 << 14, AdjCacheBytes: 1 << 18,
		DelegateBytes: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lccClose(both.LCC, base.LCC) || both.Triangles != base.Triangles {
		t.Error("delegation+caching changed results")
	}
	var delegated, cacheOps int64
	for _, s := range both.PerRank {
		delegated += s.DelegatedReads
		cacheOps += s.AdjCache.Hits + s.AdjCache.Misses
	}
	if delegated == 0 {
		t.Error("no delegated reads in combined run")
	}
	if cacheOps == 0 {
		t.Error("cache saw no traffic in combined run")
	}
}

// TestDelegationWorksWithPushAndJaccard: the replica path is shared by all
// three engines through the common worker.
func TestDelegationWorksWithPushAndJaccard(t *testing.T) {
	g := gen.Prepare(gen.RMAT(gen.DefaultRMAT(10, 8, graph.Undirected, 31)), 31)
	pull, err := Run(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	push, err := RunPush(g, PushOptions{
		Options:     Options{Ranks: 4, DelegateBytes: 1 << 16},
		Aggregation: PushBatched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lccClose(push.LCC, pull.LCC) {
		t.Error("delegated push differs from pull")
	}
	jacBase, err := RunJaccard(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	jacDeleg, err := RunJaccard(g, Options{Ranks: 4, DelegateBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(jacBase.Scores) != len(jacDeleg.Scores) {
		t.Fatal("jaccard score lengths differ")
	}
	for i := range jacBase.Scores {
		if jacBase.Scores[i] != jacDeleg.Scores[i] {
			t.Fatalf("jaccard score %d differs under delegation", i)
		}
	}
}

// TestDelegationQuick: for arbitrary budgets on a fixed graph, results are
// unchanged and the budget is respected.
func TestDelegationQuick(t *testing.T) {
	g := gen.Prepare(gen.ErdosRenyi(1<<8, 1<<11, graph.Undirected, 37), 37)
	base, err := Run(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := func(budget uint32) bool {
		b := int(budget % (1 << 20))
		res, err := Run(g, Options{Ranks: 4, DelegateBytes: b})
		if err != nil {
			return false
		}
		return lccClose(res.LCC, base.LCC) && res.DelegationBytes <= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
