package lcc

import (
	"math/rand/v2"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rma"
)

// Fetch-plane micro-benchmarks: the three flavors of one adjacency fetch —
// a local partition read, a remote two-get pipeline, and a CLaMPI hit on
// both gets — isolated from the intersection kernels, so the flat fetch
// plane can be timed on its own. The companion
// alloc guards pin the steady state of all three flavors, plus the
// lookahead pipeline itself, at zero heap allocations.

// fetchHarness is a two-rank world with rank 0's worker ready to fetch:
// vertex `local` is owned by rank 0, `remote` by rank 1.
type fetchHarness struct {
	w             *worker
	local, remote graph.V
}

// newFetchHarness builds the harness over a small random graph. caching
// selects the CLaMPI-wrapped worker (C_offsets + C_adj, ScoreDegree — the
// golden cached configuration's policy).
func newFetchHarness(tb testing.TB, caching bool) *fetchHarness {
	return newFetchHarnessStorage(tb, caching, StoragePlain, nil, false)
}

// newFetchHarnessStorage is newFetchHarness with the locals representation
// selected explicitly: StorageCompressed exercises the varint/delta decode
// on every flavor of the fetch plane. A non-nil faults installs that schedule
// on the harness world. Both caches are resident for rank 0 of this graph;
// resident says whether the worker may decide by first touch, or must run
// CLaMPI instances.
func newFetchHarnessStorage(tb testing.TB, caching bool, storage StorageMode, faults *fault.Spec, resident bool) *fetchHarness {
	tb.Helper()
	rng := rand.New(rand.NewPCG(11, 13))
	const n = 256
	edges := make([]graph.Edge, 4*n)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.V(rng.IntN(n)), Dst: graph.V(rng.IntN(n))}
	}
	g := graph.MustBuild(graph.Undirected, n, edges)
	opt := Options{Ranks: 2, DoubleBuffer: true, Storage: storage, Faults: faults}
	if caching {
		opt.Caching = true
		opt.OffsetsCacheBytes = 1 << 14
		opt.AdjCacheBytes = 1 << 16
		opt.AdjScorePolicy = ScoreDegree
	}
	h := &fetchHarness{w: harnessWorker(tb, g, opt, resident)}
	pt := h.w.pt
	// Pick a rank-0 and a rank-1 vertex with non-empty adjacency.
	for v := graph.V(0); int(v) < n; v++ {
		if len(g.Adj(v)) == 0 {
			continue
		}
		if pt.Owner(v) == 0 && h.local == 0 {
			h.local = v
		}
		if pt.Owner(v) == 1 && h.remote == 0 {
			h.remote = v
		}
	}
	if h.local == 0 || h.remote == 0 {
		tb.Fatal("harness graph has no usable local/remote vertex")
	}
	return h
}

// harnessWorker builds rank 0's worker over a fresh world on g, outside any
// run, with the read-ahead stage forced on (stageAhead) whatever g's size.
// Unless resident, its caches are CLaMPI instances whatever the residency
// law says.
func harnessWorker(tb testing.TB, g graph.Store, opt Options, resident bool) *worker {
	tb.Helper()
	s, err := opt.snapshot(g)
	if err != nil {
		tb.Fatal(err)
	}
	s.ahead = true
	opt = s.options(opt)
	if !resident {
		forceCLaMPI(s, opt)
	}
	comm := rma.NewCommWorkers(opt.Ranks, opt.Model, opt.Workers)
	opt.configureCharges(comm)
	wOff, wAdj := s.windows(comm)
	return newWorker(comm.Rank(0), s, wOff, wAdj, opt)
}

// fetchOnce drives one fetch of vj through the walk's path on the harness
// worker — staged in the ring, decided by a caching worker's pass, then
// start→mid→finish — and returns the resolved list length.
func (h *fetchHarness) fetchOnce(vj graph.V) int {
	w, f := h.w, &h.w.fetchA
	w.ring[0] = pipeEdge{vj: vj, rv: w.resolve[vj]}
	if w.opt.Caching {
		w.decide(w.ring[:1])
	}
	w.start(f, w.ring[0])
	w.mid(f)
	return len(w.finish(f))
}

// BenchmarkFetchLocal is the local flavor: resolve-table hit, partition
// read, one LocalCost charge. No requests, no cache.
func BenchmarkFetchLocal(b *testing.B) {
	h := newFetchHarness(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.fetchOnce(h.local)
	}
}

// BenchmarkFetchRemoteMiss is the non-cached remote flavor: the full
// two-get pipeline (offsets get, wait, adjacency get, wait) through
// caller-owned value requests.
func BenchmarkFetchRemoteMiss(b *testing.B) {
	h := newFetchHarness(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.fetchOnce(h.remote)
	}
}

// BenchmarkFetchCachedHit is the steady-state cached flavor as the walk runs
// it: a full ring of edges whose offsets and adjacency accesses are CLaMPI
// hits, decided by one pass, then charged and served as window views by
// start, mid and finish. ns/op is per edge.
func BenchmarkFetchCachedHit(b *testing.B) {
	h := newFetchHarness(b, true)
	w, f := h.w, &h.w.fetchA
	h.fetchOnce(h.remote) // compulsory misses: populate both caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%fetchLookahead == 0 {
			for j := range w.ring {
				w.ring[j] = pipeEdge{vj: h.remote, rv: w.resolve[h.remote]}
			}
			w.decide(w.ring[:])
		}
		w.start(f, w.ring[i%fetchLookahead])
		w.mid(f)
		w.finish(f)
	}
}

// BenchmarkForEachEdgeStaged is one rank's whole walk — refills with their
// read-ahead stage, two cached gets per remote edge, an empty visit — on the
// benchmark's cached-uniform configuration: 32 ranks, C_offsets 256 KiB,
// C_adj 4 MiB, LRU scores. Rank 0 owns a thirty-second of the snapshot's
// 4.5 MB; the stage reads the rest of it where the gets' views will.
func BenchmarkForEachEdgeStaged(b *testing.B) {
	opt := cachedOpts(1, 1<<18, 1<<22, ScoreLRU)
	opt.Ranks = 32
	w := harnessWorker(b, gen.MustLoad("uniform"), opt, true)
	walk := func() { w.forEachEdge(func(li int, vj graph.V, adjJ []graph.V) {}) }
	walk() // compulsory misses, pools, slab growth
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walk()
	}
}

// BenchmarkDecidePass times a caching rank's decision pass (decide) on the
// benchmark's cached-rmat configuration — R-MAT s15, 32 ranks, C_offsets
// 256 KiB, C_adj 4 MiB, degree scores — over rank 0's walk staged as 64-edge
// refills, lap after lap: compulsory misses on the first, hits after. Its
// caches are resident (first touch) in one sub-benchmark and CLaMPI
// instances in the other; ns/edge is per staged edge, local ones included.
func BenchmarkDecidePass(b *testing.B) {
	for _, resident := range []bool{true, false} {
		name := "clampi"
		if resident {
			name = "resident"
		}
		b.Run(name, func(b *testing.B) {
			opt := cachedOpts(1, 1<<18, 1<<22, ScoreDegree)
			opt.Ranks = 32
			w := harnessWorker(b, gen.MustLoad("rmat-s15-ef16"), opt, resident)
			if resident && (w.cOff != nil || w.cAdj != nil) {
				b.Fatalf("rank 0's caches are not both resident (C_offsets %v, C_adj %v)", w.cOff == nil, w.cAdj == nil)
			}
			var batches [][fetchLookahead]pipeEdge
			for w.refillRing(); w.ringLen == fetchLookahead; w.refillRing() {
				batches = append(batches, w.ring)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.decide(batches[i%len(batches)][:])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fetchLookahead), "ns/edge")
		})
	}
}

// TestFetchFlavorsAllocFree pins all three fetch flavors at zero
// steady-state heap allocations — the cached one through CLaMPI and through
// resident caches — and a fourth: the degraded one, where the worker has
// caches but the fault schedule makes every access find them unavailable, so
// both gets go direct.
func TestFetchFlavorsAllocFree(t *testing.T) {
	cases := []struct {
		name     string
		caching  bool
		faults   *fault.Spec
		resident bool
		target   func(h *fetchHarness) graph.V
	}{
		{"local", false, nil, false, func(h *fetchHarness) graph.V { return h.local }},
		{"remote-miss", false, nil, false, func(h *fetchHarness) graph.V { return h.remote }},
		{"cached-hit", true, nil, false, func(h *fetchHarness) graph.V { return h.remote }},
		{"resident-hit", true, nil, true, func(h *fetchHarness) graph.V { return h.remote }},
		{"degraded", true, &fault.Spec{CacheFailPct: 1}, false, func(h *fetchHarness) graph.V { return h.remote }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			h := newFetchHarnessStorage(t, tc.caching, StoragePlain, tc.faults, tc.resident)
			vj := tc.target(h)
			h.fetchOnce(vj) // warm pools / populate caches
			if allocs := testing.AllocsPerRun(100, func() { h.fetchOnce(vj) }); allocs > 0 {
				t.Errorf("%s fetch allocates %.1f objects per op, want 0", tc.name, allocs)
			}
			if tc.faults == nil {
				return
			}
			off, adj, ctr := h.w.cOff.Stats(), h.w.cAdj.Stats(), h.w.r.Counters()
			cached := off.Hits + off.Misses + adj.Hits + adj.Misses
			if off.DegradedOps == 0 || adj.DegradedOps != off.DegradedOps || cached != 0 || ctr.Gets != 2*off.DegradedOps {
				t.Errorf("degraded fetches: C_offsets %+v, C_adj %+v, %d direct gets; want every access degraded, none cached, two gets a fetch",
					off, adj, ctr.Gets)
			}
		})
	}
}

// TestLookaheadPipelineAllocFree pins the full forEachEdge lookahead
// pipeline — ring refills with their read-ahead stage, fetch slot flips,
// visits — at zero steady-state allocations for both the plain and the cached
// worker.
func TestLookaheadPipelineAllocFree(t *testing.T) {
	for _, caching := range []bool{false, true} {
		name := "plain"
		if caching {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			h := newFetchHarness(t, caching)
			walk := func() {
				h.w.forEachEdge(func(li int, vj graph.V, adjJ []graph.V) {})
			}
			walk() // warm pools, populate caches
			if h.w.sink == 0 {
				t.Fatal("the walk staged nothing ahead: the guard below would not cover stageAhead")
			}
			if allocs := testing.AllocsPerRun(5, walk); allocs > 0 {
				t.Errorf("lookahead pipeline (%s) allocates %.1f objects per walk, want 0", name, allocs)
			}
		})
	}
}

// TestCompressedDecodeAllocFree pins the compressed-locals decode path at
// zero steady-state heap allocations across every flavor that reaches it:
// the local fetch (decode into the slot's dec buffer), the remote two-get
// pipeline (decode into the caller-owned request's vbuf at issue), the
// cache hit (decode into the slot's dec buffer), and the full
// lookahead walk — ring-scan decode, fetch-slot decode, and the visit
// side's adjOwned memo all reusing their warm buffers.
func TestCompressedDecodeAllocFree(t *testing.T) {
	cases := []struct {
		name    string
		caching bool
		target  func(h *fetchHarness) graph.V
	}{
		{"local", false, func(h *fetchHarness) graph.V { return h.local }},
		{"remote-miss", false, func(h *fetchHarness) graph.V { return h.remote }},
		{"cached-hit", true, func(h *fetchHarness) graph.V { return h.remote }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			h := newFetchHarnessStorage(t, tc.caching, StorageCompressed, nil, false)
			if !h.w.compLoc {
				t.Fatal("harness did not build compressed locals")
			}
			vj := tc.target(h)
			h.fetchOnce(vj) // warm decode buffers / populate caches
			if allocs := testing.AllocsPerRun(100, func() { h.fetchOnce(vj) }); allocs > 0 {
				t.Errorf("compressed %s fetch allocates %.1f objects per op, want 0", tc.name, allocs)
			}
		})
	}
	t.Run("lookahead-walk", func(t *testing.T) {
		h := newFetchHarnessStorage(t, false, StorageCompressed, nil, false)
		walk := func() {
			h.w.forEachEdge(func(li int, vj graph.V, adjJ []graph.V) {
				_ = h.w.adjOwned(li) // the visit side's decode memo
			})
		}
		walk() // warm every reuse buffer along the ring
		if allocs := testing.AllocsPerRun(5, walk); allocs > 0 {
			t.Errorf("compressed lookahead walk allocates %.1f objects per walk, want 0", allocs)
		}
	})
}

// TestFaultPlaneDisabledAllocFree pins the cost of the disabled fault
// plane at exactly nothing: with no schedule installed (Options.Faults
// nil, so every rank's schedule pointer stays nil) the injection guards in
// the fetch flavors are a single nil check, and the steady-state
// allocation profile of all three flavors remains zero objects per op.
func TestFaultPlaneDisabledAllocFree(t *testing.T) {
	cases := []struct {
		name    string
		caching bool
		target  func(h *fetchHarness) graph.V
	}{
		{"local", false, func(h *fetchHarness) graph.V { return h.local }},
		{"remote-miss", false, func(h *fetchHarness) graph.V { return h.remote }},
		{"cached-hit", true, func(h *fetchHarness) graph.V { return h.remote }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// The harness never sets Options.Faults, so the schedule
			// pointer on every rank is nil — the disabled plane.
			h := newFetchHarness(t, tc.caching)
			vj := tc.target(h)
			h.fetchOnce(vj) // warm pools / populate caches
			if allocs := testing.AllocsPerRun(100, func() { h.fetchOnce(vj) }); allocs > 0 {
				t.Errorf("%s fetch with disabled fault plane allocates %.1f objects per op, want 0", tc.name, allocs)
			}
		})
	}
}

// forceCLaMPI records for every rank of s that neither of its caches under
// opt is resident, so that the runs and workers made after it on s use
// CLaMPI instances whatever the residency law says.
func forceCLaMPI(s *Snapshot, opt Options) {
	off, adj := cacheConfigs(s.n, opt)
	set := s.residency.answers(residentKey{off, adj}, s.ranks)
	for i := range set.ans {
		set.ans[i].Store(ansChecked)
	}
}

// residentRanks counts the ranks whose kept answers for opt's cache
// configurations make C_offsets, and C_adj, resident: what a run under them
// without cache faults used.
func residentRanks(s *Snapshot, opt Options) (off, adj int) {
	o, a := cacheConfigs(s.n, opt)
	set := s.residency.set
	if set == nil || set.key != (residentKey{o, a}) {
		return 0, 0
	}
	for i := range set.ans {
		x := set.ans[i].Load()
		if x&ansOff != 0 {
			off++
		}
		if x&ansAdj != 0 {
			adj++
		}
	}
	return off, adj
}
