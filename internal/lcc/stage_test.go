package lcc

import (
	"context"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/clampi"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/part"
)

// stageAhead (engine.go) reads host memory ahead of the model on snapshots
// past stageMinBytes. These tests force it on over a small graph and pin that
// it can change nothing and fault on nothing, wherever forEachEdge runs.

// stageGraph has what the stage's index arithmetic must survive: 1021
// vertices (a multiple of neither 8 ranks nor 4 slots), the last fifty with
// empty lists, two hubs whose upper lists get dense sets, and a sparse random
// rest.
func stageGraph() *graph.Graph {
	const n, live = 1021, 971
	rng := rand.New(rand.NewPCG(23, 29))
	var edges []graph.Edge
	for hub := graph.V(0); hub < 2; hub++ {
		for v := graph.V(2); v < live; v++ {
			if rng.IntN(4) != 0 {
				edges = append(edges, graph.Edge{Src: hub, Dst: v})
			}
		}
	}
	for i := 0; i < 6*live; i++ {
		edges = append(edges, graph.Edge{Src: graph.V(rng.IntN(live)), Dst: graph.V(rng.IntN(live))})
	}
	return graph.MustBuild(graph.Undirected, n, edges)
}

// damageIndex damages a filled index throughout: most words off by a little
// or a lot — upper offsets past their list, hub slots that were never filled,
// plain words turned into hub words — and every hub's upper offset nudged.
func damageIndex(ix *orientIndex) {
	for v := range ix.word {
		if w := ix.word[v].Load(); w != 0 && v%3 != 0 {
			ix.word[v].Store(w + uint32(1+v%5)<<uint(v%32))
		}
	}
	for i := range ix.page {
		if pg := ix.page[i].Load(); pg != nil {
			for j := range pg {
				pg[j].upper += j%3 - 1
			}
		}
	}
}

// fingerprint folds what the model produced — SimTime bits, triangles, every
// LCC score and every rank's charge digest — into one word.
func fingerprint(res *Result, sums []uint64) uint64 {
	h := uint64(1469598103934665603)
	mix := func(x uint64) { h = (h ^ x) * 1099511628211 }
	mix(math.Float64bits(res.SimTime))
	mix(uint64(res.Triangles))
	for _, x := range res.LCC {
		mix(math.Float64bits(x))
	}
	for _, s := range sums {
		mix(s)
	}
	return h
}

// TestStageAheadIsHarmless runs every engine and layout forEachEdge serves
// with the stage forced on: on an empty orientation index, on a filled one and
// on a damaged one. Each run must end without a fault and reproduce the
// fingerprint recorded at the commit before the stage existed; and over every
// vertex and every word the index holds at any of the three points — and some
// it never would — the stage's index into the owner's adjacency stays inside
// the list.
func TestStageAheadIsHarmless(t *testing.T) {
	g := stageGraph()
	ctx := context.Background()
	cached := func(o Options, policy ScorePolicy) Options {
		o.Caching, o.OffsetsCacheBytes, o.AdjCacheBytes, o.AdjScorePolicy = true, 1<<10, 1<<13, policy
		return o
	}
	pull := Options{Workers: 2, Method: intersect.MethodHybrid, DoubleBuffer: true}
	type engine func(s *Snapshot, o Options) (*Result, error)
	run := func(s *Snapshot, o Options) (*Result, error) { return s.RunCtx(ctx, o) }
	for _, tc := range []struct {
		name string
		so   SnapshotOptions
		opt  Options
		run  engine
		want uint64
	}{
		{"block/plain/pull", SnapshotOptions{Ranks: 8, Scheme: part.Block}, pull, run, 0x23b4c579dbe1818e},
		{"cyclic/plain/cached-lru", SnapshotOptions{Ranks: 8, Scheme: part.Cyclic}, cached(pull, ScoreLRU), run, 0x4359ee30280bbdf6},
		{"blockarcs/plain/cached-degree", SnapshotOptions{Ranks: 8, Scheme: part.BlockArcs}, cached(pull, ScoreDegree), run, 0x285a709281fc940c},
		{"block/compressed/cached-lru", SnapshotOptions{Ranks: 8, Scheme: part.Block, Storage: StorageCompressed}, cached(pull, ScoreLRU), run, 0xdc5c9c6ca473be1e},
		{"cyclic/compressed/pull", SnapshotOptions{Ranks: 8, Scheme: part.Cyclic, Storage: StorageCompressed}, pull, run, 0x523cce2be46e2bc1},
		{"block/delegated/cached-lru", SnapshotOptions{Ranks: 8, Scheme: part.Block, DelegateBytes: 1 << 12}, cached(pull, ScoreLRU), run, 0x701276baa7e76c55},
		{"block/single-buffer", SnapshotOptions{Ranks: 8, Scheme: part.Block},
			func() Options { o := cached(pull, ScoreLRU); o.DoubleBuffer = false; return o }(), run, 0x1d8d72db544eb512},
		// Cache faults flush both caches mid-run, under the lanes the stage reads.
		{"block/cache-faults", SnapshotOptions{Ranks: 8, Scheme: part.Block},
			func() Options {
				o := cached(pull, ScoreDegree)
				o.Faults = &fault.Spec{Seed: 303, CacheFailPct: 0.01}
				return o
			}(), run, 0x7ba743a463fd7ca9},
		// Two replica groups of four slots: the stage reads a slot's arrays,
		// the gets go to the group's own rank.
		{"replicated-c2", SnapshotOptions{Ranks: 4, Scheme: part.Block}, cached(pull, ScoreLRU),
			func(s *Snapshot, o Options) (*Result, error) { return s.runReplicatedCtx(ctx, o, 2) }, 0xc4115c80aa28f3cf},
		// The push engine stages through its edge filter.
		{"push", SnapshotOptions{Ranks: 8, Scheme: part.Block}, cached(pull, ScoreLRU),
			func(s *Snapshot, o Options) (*Result, error) { return s.runPushCtx(ctx, PushOptions{Options: o}) }, 0x32bf739e31a8477f},
	} {
		s, err := NewSnapshotOpts(g, tc.so)
		if err != nil {
			t.Fatal(err)
		}
		s.ahead = true
		check := func(index string) {
			t.Helper()
			d := newChargeDigest()
			opt := tc.opt
			opt.ChargeObserver = d.observe
			res, err := tc.run(s, opt)
			if err != nil {
				t.Fatalf("%s, %s index: %v", tc.name, index, err)
			}
			if got := fingerprint(res, d.sum); got != tc.want {
				t.Errorf("%s, %s index: fingerprint %#x, recorded %#x", tc.name, index, got, tc.want)
			}
			checkStageIndex(t, s, tc.name+", "+index+" index")
		}
		check("empty")
		// The push engine never cuts a list at its vertex, so a pull run fills
		// the index for every row.
		if _, err := s.RunCtx(ctx, pull); err != nil {
			t.Fatal(err)
		}
		check("filled")
		if len(hubEntries(s.orient)) == 0 {
			t.Fatalf("%s: the filled index has no dense set; the graph must exercise hub words", tc.name)
		}
		damageIndex(s.orient)
		check("damaged")
	}
}

// checkStageIndex holds stageIndex inside [start, end) for every vertex of s
// with a non-empty list, under the word the index has for it and under words
// no fill would write.
func checkStageIndex(t *testing.T, s *Snapshot, what string) {
	t.Helper()
	for v := range s.resolve {
		slot, li := unpackResolve(s.resolve[v])
		start, end := s.pairs[slot][2*li], s.pairs[slot][2*li+1]
		if start == end {
			continue
		}
		deg := uint32(end - start)
		for _, word := range []uint32{s.orient.word[v].Load(), 0, 1, deg, deg + 1, deg + 2, hubFlag - 1, hubFlag, hubFlag | deg, math.MaxUint32} {
			if at := stageIndex(word, start, end); at < start || at >= end {
				t.Fatalf("%s: vertex %d, word %#x: stage index %d outside its list [%d, %d)", what, v, word, at, start, end)
			}
		}
	}
}

// TestDamagedSnapshotFailsAtTheAccess damages one vertex's offset pair or
// resolve word every way the decision pass refuses to key (decide), and
// requires the cached run to fail with the error that access's get has
// always raised: through the cache, and with every access degraded to the
// direct get (CacheFailPct 1). The messages were recorded at the commit
// before the pass existed.
func TestDamagedSnapshotFailsAtTheAccess(t *testing.T) {
	g := stageGraph()
	const v = 600
	for _, tc := range []struct {
		name             string
		damage           func(s *Snapshot, slot, li int)
		cached, degraded string
	}{
		{"list past its region", func(s *Snapshot, slot, li int) { s.pairs[slot][2*li+1] = uint64(len(s.locals[slot].Adj)) + 3 },
			`Get "adjacencies" target 4 [4600:+1996) out of range (len 6584)`,
			`Get "adjacencies" target 4 [4600:+1996) out of range (len 6584)`},
		{"start after end", func(s *Snapshot, slot, li int) { s.pairs[slot][2*li] = s.pairs[slot][2*li+1] + 2 },
			"clampi: get (target 4, offset 4680, size -8) outside window geometry",
			`Get "adjacencies" target 4 [4680:+-8) out of range (len 6584)`},
		{"pair past its region", func(s *Snapshot, slot, li int) { s.pairs[slot] = s.pairs[slot][:2*li] },
			`Get "offsets" target 4 [`, `Get "offsets" target 4 [`},
		{"no such rank", func(s *Snapshot, slot, li int) { s.resolve[v] = uint64(9)<<resolveLiBits | uint64(li) },
			"clampi: get (target 9, offset 1440, size 16) outside window geometry",
			"index out of range [9] with length 8"},
	} {
		for _, degraded := range []bool{false, true} {
			s, err := NewSnapshotOpts(g, SnapshotOptions{Ranks: 8, Scheme: part.Block})
			if err != nil {
				t.Fatal(err)
			}
			s.ahead = true
			slot, li := unpackResolve(s.resolve[v])
			tc.damage(s, slot, li)
			opt, want := cachedOpts(1, 1<<10, 1<<13, ScoreDegree), tc.cached
			if degraded {
				opt.Faults, want = &fault.Spec{Seed: 9, CacheFailPct: 1}, tc.degraded
			}
			if _, err := s.RunCtx(context.Background(), opt); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, degraded %v: error %v, want one naming %q", tc.name, degraded, err, want)
			}
		}
	}
}

// TestDecisionPassMatchesRecorded runs each C_adj score policy — cost-benefit
// and degree+recency, whose recency refresh the pass makes, included —
// through every engine forEachEdge serves, single- and double-buffered,
// fault-free and under cache and get faults, over two layouts, and holds a
// digest of each run's fingerprint and per-rank cache statistics to the one
// recorded at the commit before the decision pass existed.
func TestDecisionPassMatchesRecorded(t *testing.T) {
	g := stageGraph()
	ctx := context.Background()
	engines := map[string]func(s *Snapshot, o Options) (*Result, error){
		"pull": func(s *Snapshot, o Options) (*Result, error) { return s.RunCtx(ctx, o) },
		"push": func(s *Snapshot, o Options) (*Result, error) { return s.runPushCtx(ctx, PushOptions{Options: o}) },
		"jaccard": func(s *Snapshot, o Options) (*Result, error) {
			jr, err := s.RunJaccardCtx(ctx, o)
			if err != nil {
				return nil, err
			}
			return &Result{LCC: jr.Scores, SimTime: jr.SimTime, PerRank: jr.PerRank}, nil
		},
		"replicated-c2": func(s *Snapshot, o Options) (*Result, error) { return s.runReplicatedCtx(ctx, o, 2) },
	}
	for _, tc := range []struct {
		policy ScorePolicy
		want   uint64
	}{
		{ScoreLRU, 0xb6bdeb0732c0f5b6}, {ScoreDegree, 0xd40cfce453c9a076},
		{ScoreCostBenefit, 0xe91b635cb8e00321}, {ScoreDegreeRecency, 0xfe22331fde9d39b7},
	} {
		h := uint64(1469598103934665603)
		mix := func(x uint64) { h = (h ^ x) * 1099511628211 }
		for _, so := range []SnapshotOptions{
			{Ranks: 8, Scheme: part.Block},
			{Ranks: 4, Scheme: part.Cyclic, Storage: StorageCompressed, DelegateBytes: 1 << 12},
		} {
			s, err := NewSnapshotOpts(g, so)
			if err != nil {
				t.Fatal(err)
			}
			s.ahead = true
			for _, faults := range []*fault.Spec{nil, {Seed: 7, CacheFailPct: 0.02, GetFailPct: 0.01}} {
				for _, double := range []bool{true, false} {
					for _, name := range []string{"pull", "push", "jaccard", "replicated-c2"} {
						if name == "replicated-c2" && so.Ranks != recycleRanks/2 {
							continue
						}
						d := newChargeDigest()
						opt := cachedOpts(2, 1<<9, 1<<12, tc.policy)
						opt.DoubleBuffer, opt.Faults, opt.ChargeObserver = double, faults, d.observe
						res, err := engines[name](s, opt)
						if err != nil {
							t.Fatalf("%v, %s: %v", tc.policy, name, err)
						}
						mix(fingerprint(res, d.sum))
						for _, r := range res.PerRank {
							for _, c := range []clampi.Stats{r.OffsetsCache, r.AdjCache} {
								for _, x := range []int64{c.Hits, c.Misses, c.CompulsoryMisses, c.Inserts, c.RejectedInserts,
									c.ConflictEvictions, c.CapacityEvictions, c.DegradedOps, c.BytesCached} {
									mix(uint64(x))
								}
							}
						}
					}
				}
			}
		}
		if h != tc.want {
			t.Errorf("%v: digest %#x, recorded %#x", tc.policy, h, tc.want)
		}
	}
}
