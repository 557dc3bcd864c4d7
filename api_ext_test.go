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

func TestFacadeNoise(t *testing.T) {
	g := repro.RMAT(8, 8, repro.Undirected, 9)
	g = repro.Prepare(g, 3)
	quietModel := repro.DefaultCostModel()
	noisyModel := quietModel
	noisyModel.Noise = repro.NoiseSpec{Amp: 0.3, Seed: 2}

	quiet, err := repro.RunLCC(g, repro.LCCOptions{Ranks: 4, Method: repro.MethodHybrid, Model: quietModel})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := repro.RunLCC(g, repro.LCCOptions{Ranks: 4, Method: repro.MethodHybrid, Model: noisyModel})
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Triangles != quiet.Triangles {
		t.Error("noise changed the triangle count through the facade")
	}
	if noisy.SimTime <= quiet.SimTime {
		t.Error("noise did not slow the simulated run")
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
	push, err := repro.RunLCCPush(g, repro.LCCPushOptions{
		Options:     repro.LCCOptions{Ranks: 4, Method: repro.MethodHybrid},
		Aggregation: repro.PushBatched,
	})
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
	if _, err := repro.RunLCCPush(directed, repro.LCCPushOptions{
		Options: repro.LCCOptions{Ranks: 2},
	}); err == nil {
		t.Error("RunLCCPush accepted a directed graph")
	}
}

func TestFacadeReplicated(t *testing.T) {
	g := repro.Prepare(repro.RMAT(10, 8, repro.Undirected, 61), 61)
	base, err := repro.RunLCC(g, repro.LCCOptions{Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repro.RunLCCReplicated(g, repro.LCCReplicatedOptions{
		Options:     repro.LCCOptions{Ranks: 8},
		Replication: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Triangles != base.Triangles {
		t.Errorf("replicated triangles %d != %d", rep.Triangles, base.Triangles)
	}
	if rep.RemoteReadFraction() >= base.RemoteReadFraction() {
		t.Error("replication did not reduce the remote-read fraction")
	}
	m1, err := repro.ReplicaWindowBytes(g, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	m4, err := repro.ReplicaWindowBytes(g, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m4 <= m1 {
		t.Errorf("window bytes did not grow with replication: %d vs %d", m4, m1)
	}
}
