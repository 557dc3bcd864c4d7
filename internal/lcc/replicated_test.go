package lcc

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
)

// TestReplicatedEqualsPlain: for every replication factor, the
// replicated-groups engine returns bit-identical LCC and triangle counts —
// and with c = 1 it is the pull engine: same SimTime bits, same RankStats in
// every field, same charge sequence on every rank, over plain and compressed
// storage, cached and not.
func TestReplicatedEqualsPlain(t *testing.T) {
	for name, g := range pushTestGraphs(t) {
		for _, storage := range []StorageMode{StoragePlain, StorageCompressed} {
			for _, caching := range []bool{false, true} {
				opt := Options{Ranks: recycleRanks, Method: intersect.MethodHybrid, DoubleBuffer: true, Storage: storage}
				if caching {
					opt.Caching, opt.OffsetsCacheBytes, opt.AdjCacheBytes = true, 1<<12, 1<<14
					opt.AdjScorePolicy = ScoreDegree
				}
				pullTape, replTape := newChargeDigest(), newChargeDigest()
				opt.ChargeObserver = pullTape.observe
				pull, err := Run(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				opt.ChargeObserver = replTape.observe
				repl, err := RunReplicated(g, ReplicatedOptions{Options: opt, Replication: 1})
				if err != nil {
					t.Fatal(err)
				}
				diffRuns(t, fmt.Sprintf("%s %v caching=%v c=1 vs pull", name, storage, caching), repl, pull, replTape.sum, pullTape.sum)
			}
		}
		base, err := Run(g, Options{Ranks: 8, Method: intersect.MethodHybrid})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []int{1, 2, 4, 8} {
			res, err := RunReplicated(g, ReplicatedOptions{
				Options:     Options{Ranks: 8, Method: intersect.MethodHybrid, DoubleBuffer: true},
				Replication: c,
			})
			if err != nil {
				t.Fatalf("%s c=%d: %v", name, c, err)
			}
			if !lccClose(res.LCC, base.LCC) {
				t.Errorf("%s c=%d: LCC differs from 1D", name, c)
			}
			if res.Triangles != base.Triangles || res.SumT != base.SumT {
				t.Errorf("%s c=%d: triangles %d (sum %d), want %d (%d)",
					name, c, res.Triangles, res.SumT, base.Triangles, base.SumT)
			}
		}
	}
}

func TestReplicatedRejectsBadFactor(t *testing.T) {
	g := fig1Graph()
	for _, c := range []int{-1, 3, 5, 7} {
		if _, err := RunReplicated(g, ReplicatedOptions{Options: Options{Ranks: 8}, Replication: c}); err == nil {
			t.Errorf("replication %d over 8 ranks: want error", c)
		}
	}
	// Zero defaults to 1.
	if _, err := RunReplicated(g, ReplicatedOptions{Options: Options{Ranks: 4}}); err != nil {
		t.Errorf("zero replication: %v", err)
	}
}

// TestReplicatedReducesRemoteFraction is the point of the 2.5D trade: at
// fixed p, the remote-read fraction drops as c grows because each fetch
// sees a 1/q partition instead of a 1/p one.
func TestReplicatedReducesRemoteFraction(t *testing.T) {
	g := gen.Prepare(gen.ErdosRenyi(1<<13, 1<<17, graph.Undirected, 51), 51)
	const p = 16
	var prev float64 = 2
	for _, c := range []int{1, 2, 4, 8} {
		res, err := RunReplicated(g, ReplicatedOptions{Options: Options{Ranks: p}, Replication: c})
		if err != nil {
			t.Fatal(err)
		}
		frac := res.RemoteReadFraction()
		if frac >= prev {
			t.Errorf("c=%d: remote fraction %.3f did not drop (previous %.3f)", c, frac, prev)
		}
		// Expected value ~ (q-1)/q for a uniform random graph.
		q := p / c
		want := float64(q-1) / float64(q)
		if frac > want+0.05 || frac < want-0.10 {
			t.Errorf("c=%d: remote fraction %.3f far from (q-1)/q = %.3f", c, frac, want)
		}
		prev = frac
	}
}

// TestReplicatedTimeAndMemoryTrade: more replication, less time, more
// per-rank window memory.
func TestReplicatedTimeAndMemoryTrade(t *testing.T) {
	g := gen.Prepare(gen.ErdosRenyi(1<<13, 1<<17, graph.Undirected, 53), 53)
	const p = 16
	r1, err := RunReplicated(g, ReplicatedOptions{Options: Options{Ranks: p, DoubleBuffer: true}, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunReplicated(g, ReplicatedOptions{Options: Options{Ranks: p, DoubleBuffer: true}, Replication: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r4.SimTime >= r1.SimTime {
		t.Errorf("c=4 time %.1f ms not below c=1 %.1f ms", r4.SimTime/1e6, r1.SimTime/1e6)
	}
	m1, err := ReplicaWindowBytes(g, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	m4, err := ReplicaWindowBytes(g, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m4 < 3*m1 {
		t.Errorf("c=4 window bytes %d not about 4x of c=1 %d", m4, m1)
	}
	if _, err := ReplicaWindowBytes(g, p, 3); err == nil {
		t.Error("ReplicaWindowBytes accepted a non-dividing factor")
	}
}

// TestReplicatedFetchesStayInGroup: with c groups, no get may target a
// rank outside the issuing rank's group.
func TestReplicatedFetchesStayInGroup(t *testing.T) {
	g := gen.Prepare(gen.RMAT(gen.DefaultRMAT(10, 8, graph.Undirected, 55)), 55)
	const p, c = 8, 2
	res, err := RunReplicated(g, ReplicatedOptions{Options: Options{Ranks: p}, Replication: c})
	if err != nil {
		t.Fatal(err)
	}
	// The group property is structural (ownerOf); here we confirm the
	// traffic exists and every rank did a fair share of the scoring.
	var total int64
	for _, s := range res.PerRank {
		total += s.RemoteReads + s.LocalReads
	}
	if total == 0 {
		t.Fatal("no reads recorded")
	}
	for _, s := range res.PerRank {
		share := float64(s.RemoteReads+s.LocalReads) / float64(total)
		if share < 0.02 {
			t.Errorf("rank %d served only %.1f%% of reads: interleave broken?", s.Rank, 100*share)
		}
	}
}

// TestReplicatedWithCachingAndDelegation: the option surface composes.
func TestReplicatedWithCachingAndDelegation(t *testing.T) {
	g := gen.Prepare(gen.RMAT(gen.DefaultRMAT(10, 8, graph.Undirected, 57)), 57)
	base, err := Run(g, Options{Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunReplicated(g, ReplicatedOptions{
		Options: Options{
			Ranks: 8, Caching: true,
			OffsetsCacheBytes: 1 << 14, AdjCacheBytes: 1 << 18,
			DelegateBytes: 1 << 14,
		},
		Replication: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lccClose(res.LCC, base.LCC) || res.Triangles != base.Triangles {
		t.Error("replicated+caching+delegation changed results")
	}
}

// TestReplicatedQuick: equality holds for random graphs and factors.
func TestReplicatedQuick(t *testing.T) {
	f := func(seed uint64, pick uint8) bool {
		c := []int{1, 2, 4}[int(pick)%3]
		g := gen.Prepare(gen.ErdosRenyi(1<<8, 1<<11, graph.Undirected, seed), seed)
		base, err := Run(g, Options{Ranks: 4})
		if err != nil {
			return false
		}
		res, err := RunReplicated(g, ReplicatedOptions{Options: Options{Ranks: 4}, Replication: c})
		if err != nil {
			return false
		}
		return lccClose(res.LCC, base.LCC) && res.Triangles == base.Triangles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
