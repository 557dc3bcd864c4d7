package lcc

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/clampi"
	"repro/internal/fault"
	"repro/internal/gen"
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
// fingerprint recorded at the commit before the stage existed (the push
// row's was re-recorded, batched, at the last commit that also had direct
// accumulates, whose zero value it had run); and over every
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
		{"block/single-buffer", SnapshotOptions{Ranks: 8, Scheme: part.Block},
			func() Options { o := cached(pull, ScoreLRU); o.DoubleBuffer = false; return o }(), run, 0x1d8d72db544eb512},
		// Cache faults flush both caches mid-run, under the lanes the stage reads.
		{"block/cache-faults", SnapshotOptions{Ranks: 8, Scheme: part.Block},
			func() Options {
				o := cached(pull, ScoreDegree)
				o.Faults = &fault.Spec{Seed: 303, CacheFailPct: 0.01}
				return o
			}(), run, 0x7ba743a463fd7ca9},
		// The push engine stages through its edge filter.
		{"push", SnapshotOptions{Ranks: 8, Scheme: part.Block}, cached(pull, ScoreLRU),
			func(s *Snapshot, o Options) (*Result, error) { return s.runPushCtx(ctx, o) }, 0xb708de0f133853eb},
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
		start, end := s.locals[slot].Offsets[li], s.locals[slot].Offsets[li+1]
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

// TestDamagedSnapshotFailsAtTheAccess damages one vertex's offsets record or
// resolve word every way the decision pass refuses to key (decide), and
// requires the cached run to fail with the error that access's get has
// always raised: through the cache, and with every access degraded to the
// direct get (CacheFailPct 1). Those messages were recorded, for the same
// damage, at the commit before the pass existed and at the last commit whose
// offsets window served a copy of the offsets. Under one worker the ranks
// start in index order, so the run fails on the first rank that meets the
// damage — rank 0, a reader of the damaged list, never its owner — with the
// same message on every repeat. The caches are sized so that the layout's
// ranks are resident (resident.go), and each damage is made twice: before
// any run, so that the residency check reads it, and after a clean run has
// kept the answers, so that resident ranks meet it in the walk.
func TestDamagedSnapshotFailsAtTheAccess(t *testing.T) {
	g := stageGraph()
	const v = 600
	for _, tc := range []struct {
		name             string
		damage           func(s *Snapshot, slot, li int)
		cached, degraded string
	}{
		// Raising a list's end raises the next list's start, so the damaged
		// list is the slot's last.
		{"list past its region", func(s *Snapshot, slot, _ int) {
			lc := s.locals[slot]
			lc.Offsets[lc.NumLocal()] = uint64(len(lc.Adj)) + 3
		},
			`rma: rank 0: Get "adjacencies" target 4 [6512:+84) out of range (len 6584)`,
			`rma: rank 0: Get "adjacencies" target 4 [6512:+84) out of range (len 6584)`},
		{"start after end", func(s *Snapshot, slot, li int) {
			off := s.locals[slot].Offsets
			off[li] = off[li+1] + 2
		},
			"clampi: get (target 4, offset 4680, size -8) outside window geometry",
			`rma: rank 0: Get "adjacencies" target 4 [4680:+-8) out of range (len 6584)`},
		{"record past its region", func(s *Snapshot, slot, li int) { s.locals[slot].Offsets = s.locals[slot].Offsets[:li+1] },
			`rma: rank 0: Get "offsets" target 4 [1440:+16) out of range (len 1440)`,
			`rma: rank 0: Get "offsets" target 4 [1440:+16) out of range (len 1440)`},
		{"no such rank", func(s *Snapshot, slot, li int) { s.resolve[v] = uint64(9)<<resolveLiBits | uint64(li) },
			"clampi: get (target 9, offset 1440, size 16) outside window geometry",
			"runtime error: index out of range [9] with length 8"},
	} {
		for _, kept := range []bool{false, true} {
			for _, degraded := range []bool{false, true} {
				for repeat := 0; repeat < 3; repeat++ {
					s, err := NewSnapshotOpts(g, SnapshotOptions{Ranks: 8, Scheme: part.Block})
					if err != nil {
						t.Fatal(err)
					}
					s.ahead = true
					opt, want := cachedOpts(1, 16<<10, 256<<10, ScoreDegree), tc.cached
					if kept {
						if _, err := s.RunCtx(context.Background(), opt); err != nil {
							t.Fatal(err)
						}
						if off, adj := residentRanks(s, opt); off+adj == 0 {
							t.Fatalf("%s: the clean run ran no resident rank", tc.name)
						}
					}
					slot, li := unpackResolve(s.resolve[v])
					tc.damage(s, slot, li)
					if degraded {
						opt.Faults, want = &fault.Spec{Seed: 9, CacheFailPct: 1}, tc.degraded
					}
					_, err = s.RunCtx(context.Background(), opt)
					if want = "sched: rank 0 panicked: " + want; err == nil || err.Error() != want {
						t.Errorf("%s, answers kept %v, degraded %v, repeat %d: error %v, want %q", tc.name, kept, degraded, repeat, err, want)
					}
				}
			}
		}
	}
}

// TestDecisionPassMatchesRecorded runs both C_adj score policies through
// every engine forEachEdge serves, single- and double-buffered,
// fault-free and under cache and get faults, over two layouts, and holds a
// digest of each run's fingerprint and per-rank cache statistics to the one
// recorded at the commit before the decision pass existed.
//
// The resident rows do the same at three cache sizes where the residency
// law admits ranks — both caches, only C_adj, only C_offsets — with a run
// under get faults alone added, every statistic in the digest, and digests
// recorded at the commit before resident caches existed. Each must run a
// resident rank, and no run with cache faults may: such a run never asks
// for the answers that make a cache resident.
//
// Every digest over an undirected graph folds push runs, which ran the
// zero-value direct accumulates until those were deleted; those digests
// were re-recorded, push batched, at the last commit that had both. The
// second layout ran a static hub-replica budget until that option was
// deleted; every digest was re-recorded without it at the last commit that
// had it. The digests also ran a two-group replicated engine until that
// engine was deleted; every digest was re-recorded without it at the last
// commit that had it.
func TestDecisionPassMatchesRecorded(t *testing.T) {
	g := stageGraph()
	cacheFaults := &fault.Spec{Seed: 7, CacheFailPct: 0.02, GetFailPct: 0.01}
	s, err := NewSnapshotOpts(g, SnapshotOptions{Ranks: 8, Scheme: part.Block})
	if err != nil {
		t.Fatal(err)
	}
	opt := cachedOpts(2, 16<<10, 256<<10, ScoreDegree)
	opt.Faults = cacheFaults
	if _, err := s.RunCtx(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	if s.residency.set != nil {
		t.Error("a run with cache faults asked for residency answers")
	}
	for _, tc := range []struct {
		policy ScorePolicy
		want   uint64
	}{
		{ScoreLRU, 0x6863bc61066bf962}, {ScoreDegree, 0xdc04d31666a9cafc},
	} {
		h, _ := decisionDigest(t, g, cachedOpts(2, 1<<9, 1<<12, tc.policy), []*fault.Spec{nil, cacheFaults}, false)
		if h != tc.want {
			t.Errorf("%v: digest %#x, recorded %#x", tc.policy, h, tc.want)
		}
	}
	for _, tc := range []struct {
		off, adj int
		want     [2]uint64 // per policy, in ScorePolicy order
	}{
		{16 << 10, 256 << 10, [2]uint64{0x86954c7b211ed0d1, 0xfc92bb2c683dffc4}},
		{512, 256 << 10, [2]uint64{0x28046a7ab4dc9bab, 0x4a77c3fcf58effbd}},
		{16 << 10, 4 << 10, [2]uint64{0x2a22ceeba7120da2, 0xf858a8c5cfd62717}},
	} {
		for policy, want := range tc.want {
			opt := cachedOpts(2, tc.off, tc.adj, ScorePolicy(policy))
			h, resident := decisionDigest(t, g, opt, []*fault.Spec{nil, cacheFaults, {Seed: 7, GetFailPct: 0.01}}, true)
			if h != want {
				t.Errorf("%d/%d bytes, %v: digest %#x, recorded %#x", tc.off, tc.adj, ScorePolicy(policy), h, want)
			}
			if resident == 0 {
				t.Errorf("%d/%d bytes, %v: no rank ran a resident cache", tc.off, tc.adj, ScorePolicy(policy))
			}
		}
	}
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		off, adj int
		want     uint64
	}{
		{"directed R-MAT", gen.RMAT(gen.DefaultRMAT(10, 8, graph.Directed, 3)), 512, 4 << 10, 0x863365e3c27761d5},
		{"uniform, C_offsets 100 B", gen.ErdosRenyi(1<<10, 1<<13, graph.Undirected, 5), 100, 4 << 10, 0x90457e544fd62193},
		{"uniform, C_offsets 1000 B", gen.ErdosRenyi(1<<10, 1<<13, graph.Undirected, 5), 1000, 4 << 10, 0xeb081d7b0adea429},
	} {
		opt := cachedOpts(2, tc.off, tc.adj, ScoreLRU)
		h, _ := decisionDigest(t, tc.g, opt, []*fault.Spec{nil, cacheFaults}, true)
		if h != tc.want {
			t.Errorf("%s: digest %#x, recorded %#x", tc.name, h, tc.want)
		}
		s, err := NewSnapshotOpts(tc.g, SnapshotOptions{Ranks: 8, Scheme: part.Block})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunCtx(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		var empty, evictions int64
		for _, r := range res.PerRank {
			empty += r.AdjCache.RejectedInserts // under LRU, only an empty list's: every list fits the buffer
			evictions += r.OffsetsCache.CapacityEvictions + r.OffsetsCache.ConflictEvictions
		}
		if (tc.g.Kind() == graph.Directed) != (empty > 0) || evictions == 0 {
			t.Errorf("%s: %d empty-list fetches, %d C_offsets evictions: the directed row must fetch empty lists, and every row evict", tc.name, empty, evictions)
		}
	}
}

// decisionDigest runs opt through every engine forEachEdge serves, single-
// and double-buffered, under each of faults, on two layouts, and folds each
// run's fingerprint and per-rank cache statistics — all of them, or the
// first nine — into one digest. It also returns how many resident caches
// the runs without cache faults ran, counted per rank from the answers.
func decisionDigest(t *testing.T, g *graph.Graph, opt Options, faults []*fault.Spec, all bool) (uint64, int) {
	t.Helper()
	ctx := context.Background()
	engines := map[string]func(s *Snapshot, o Options) (*Result, error){
		"pull": func(s *Snapshot, o Options) (*Result, error) { return s.RunCtx(ctx, o) },
		"push": func(s *Snapshot, o Options) (*Result, error) { return s.runPushCtx(ctx, o) },
		"jaccard": func(s *Snapshot, o Options) (*Result, error) {
			jr, err := s.RunJaccardCtx(ctx, o)
			if err != nil {
				return nil, err
			}
			return &Result{LCC: jr.Scores, SimTime: jr.SimTime, PerRank: jr.PerRank}, nil
		},
	}
	h := uint64(1469598103934665603)
	mix := func(x uint64) { h = (h ^ x) * 1099511628211 }
	var resident int
	for _, so := range []SnapshotOptions{
		{Ranks: 8, Scheme: part.Block},
		{Ranks: 4, Scheme: part.Cyclic, Storage: StorageCompressed},
	} {
		s, err := NewSnapshotOpts(g, so)
		if err != nil {
			t.Fatal(err)
		}
		s.ahead = true
		for _, faults := range faults {
			for _, double := range []bool{true, false} {
				for _, name := range []string{"pull", "push", "jaccard"} {
					if name == "push" && g.Kind() == graph.Directed {
						continue
					}
					d := newChargeDigest()
					opt := opt
					opt.DoubleBuffer, opt.Faults, opt.ChargeObserver = double, faults, d.observe
					res, err := engines[name](s, opt)
					if err != nil {
						t.Fatalf("%v, %s: %v", opt.AdjScorePolicy, name, err)
					}
					if faults == nil || faults.CacheFailPct <= 0 {
						off, adj := residentRanks(s, opt)
						resident += off + adj
					}
					mix(fingerprint(res, d.sum))
					for _, r := range res.PerRank {
						for _, c := range []clampi.Stats{r.OffsetsCache, r.AdjCache} {
							for _, x := range []int64{c.Hits, c.Misses, c.CompulsoryMisses, c.Inserts, c.RejectedInserts,
								c.ConflictEvictions, c.CapacityEvictions, c.DegradedOps, c.BytesCached} {
								mix(uint64(x))
							}
							if all {
								for _, x := range []int64{c.HitBytes, c.MissBytes, c.EntriesCached, c.Flushes} {
									mix(uint64(x))
								}
								mix(math.Float64bits(c.FragmentationRatio))
							}
						}
					}
				}
			}
		}
	}
	return h, resident
}
