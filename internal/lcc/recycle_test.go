package lcc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/part"
	"repro/internal/rma"
	"repro/internal/sched"
)

// Cache-instance recycling (DESIGN.md §2): a snapshot hands the CLaMPI
// instances of finished ranks to later ranks and later runs. These tests pin
// that nothing of an instance's earlier use can reach the model.

const recycleRanks = 8

// recycleGraph is a small scale-free graph after the paper's preprocessing
// (degree < 2 removed, relabeled).
func recycleGraph() *graph.Graph {
	return gen.Prepare(gen.RMAT(gen.DefaultRMAT(10, 8, graph.Undirected, 5)), 5)
}

func recycleSnapshot(t testing.TB, g *graph.Graph, storage StorageMode) *Snapshot {
	t.Helper()
	s, err := NewSnapshotOpts(g, SnapshotOptions{Ranks: recycleRanks, Scheme: part.Block, Storage: storage})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func cachedOpts(workers, offBytes, adjBytes int, policy ScorePolicy) Options {
	return Options{
		Workers: workers, Method: intersect.MethodHybrid, DoubleBuffer: true,
		Caching: true, OffsetsCacheBytes: offBytes, AdjCacheBytes: adjBytes, AdjScorePolicy: policy,
	}
}

// chargeDigest folds every observed charge of a rank into one FNV-1a word,
// clock bits included. Rank r's goroutine is the only writer of sum[r].
type chargeDigest struct{ sum []uint64 }

func newChargeDigest() *chargeDigest {
	d := &chargeDigest{sum: make([]uint64, recycleRanks)}
	for r := range d.sum {
		d.sum[r] = 1469598103934665603
	}
	return d
}

func (d *chargeDigest) observe(rank int, kind rma.ChargeKind, bytes int, ns, now float64) {
	h := d.sum[rank]
	for _, x := range [...]uint64{uint64(kind), uint64(bytes), math.Float64bits(ns), math.Float64bits(now)} {
		h = (h ^ x) * 1099511628211
	}
	d.sum[rank] = h
}

// runDigested executes one cached query and returns its result with the
// per-rank charge digests.
func runDigested(t *testing.T, s *Snapshot, opt Options) (*Result, []uint64) {
	t.Helper()
	d := newChargeDigest()
	opt.ChargeObserver = d.observe
	res, err := s.RunCtx(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, d.sum
}

// diffRuns requires two runs to agree in everything the model produces:
// SimTime and LCC to the float bit, triangles, the full per-rank statistics
// (RMA counters and both caches' clampi.Stats) and, when
// given, the charge digests.
func diffRuns(t *testing.T, name string, got, want *Result, gotSum, wantSum []uint64) {
	t.Helper()
	if math.Float64bits(got.SimTime) != math.Float64bits(want.SimTime) {
		t.Errorf("%s: SimTime %v, want %v", name, got.SimTime, want.SimTime)
	}
	if got.Triangles != want.Triangles || got.SumT != want.SumT {
		t.Errorf("%s: triangles %d (ΣT %d), want %d (%d)", name, got.Triangles, got.SumT, want.Triangles, want.SumT)
	}
	for v := range want.LCC {
		if math.Float64bits(got.LCC[v]) != math.Float64bits(want.LCC[v]) {
			t.Errorf("%s: LCC[%d] = %v, want %v", name, v, got.LCC[v], want.LCC[v])
			break
		}
	}
	for r := range want.PerRank {
		if got.PerRank[r] != want.PerRank[r] {
			t.Errorf("%s: rank %d statistics differ\n got  %+v\n want %+v", name, r, got.PerRank[r], want.PerRank[r])
		}
		if wantSum != nil && gotSum[r] != wantSum[r] {
			t.Errorf("%s: rank %d charge digest %#x, want %#x", name, r, gotSum[r], wantSum[r])
		}
	}
}

// TestRecycledCachesMatchFresh runs a sequence of differently configured
// cached queries on ONE snapshot — so every query but the first runs on
// instances some other configuration left behind — and compares each with
// the same query on a snapshot of its own. Two of them run resident caches
// (resident.go): both, and C_offsets alone; the queries after them run on a
// pool those ranks left untaken, or took only C_adj instances from. Every
// pooled C_adj instance is unbound from the run that used it (a C_offsets
// model holds no rank or window).
func TestRecycledCachesMatchFresh(t *testing.T) {
	g := recycleGraph()
	const small, large = 1 << 12, 1 << 15
	queries := []struct {
		name string
		opt  func(workers int) Options
	}{
		{"lru-small", func(w int) Options { return cachedOpts(w, small/8, small, ScoreLRU) }},
		{"degree-large", func(w int) Options { return cachedOpts(w, large/8, large, ScoreDegree) }},
		{"resident", func(w int) Options { return cachedOpts(w, 16<<10, 256<<10, ScoreDegree) }},
		{"offsets-resident", func(w int) Options { return cachedOpts(w, 16<<10, small, ScoreLRU) }},
		{"lru-small-again", func(w int) Options { return cachedOpts(w, small/8, small, ScoreLRU) }},
		{"crash-recover", func(w int) Options {
			o := cachedOpts(w, small/8, small, ScoreDegree)
			o.Faults = &fault.Spec{CrashAtOp: 40, CrashRank: 1, CrashRecover: true}
			return o
		}},
		{"lru-large", func(w int) Options { return cachedOpts(w, large/8, large, ScoreLRU) }},
	}
	for _, storage := range []StorageMode{StoragePlain, StorageCompressed} {
		for _, workers := range []int{1, 2, 4} {
			shared := recycleSnapshot(t, g, storage)
			for _, q := range queries {
				name := fmt.Sprintf("%v/workers=%d/%s", storage, workers, q.name)
				got, gotSum := runDigested(t, shared, q.opt(workers))
				want, wantSum := runDigested(t, recycleSnapshot(t, g, storage), q.opt(workers))
				diffRuns(t, name, got, want, gotSum, wantSum)
				wantOff, wantAdj := 0, 0
				switch q.name {
				case "resident":
					wantOff, wantAdj = recycleRanks, recycleRanks
				case "offsets-resident":
					wantOff = recycleRanks
				}
				if off, adj := residentRanks(shared, q.opt(workers)); off != wantOff || adj != wantAdj {
					t.Errorf("%s: C_offsets resident on %d ranks, C_adj on %d, want %d and %d", name, off, adj, wantOff, wantAdj)
				}
				for _, c := range shared.caches.adj {
					if v := reflect.ValueOf(c).Elem(); !v.FieldByName("rank").IsNil() || !v.FieldByName("win").IsNil() {
						t.Errorf("%s: a pooled cache is still bound to a rank or window", name)
					}
				}
				if q.name == "crash-recover" && got.PerRank[1].Ledger[rma.ChargeCrashRestart] == 0 {
					t.Errorf("%s: rank 1 never crashed; the query must exercise the recovery", name)
				}
			}
			for _, n := range []int{len(shared.caches.off), len(shared.caches.adj)} {
				if n < 1 || n > workers {
					t.Errorf("%v/workers=%d: pool holds %d instances of a role after sequential runs, want 1..%d", storage, workers, n, workers)
				}
			}
		}
	}
}

// TestUnwoundRankCachesNeverRecycle cancels cached runs mid-flight — by
// context, and by a fault-schedule wedge that only a cancel can end — and
// then requires the same snapshot to answer with the golden bits. An
// unwinding rank abandons its caches with a miss in flight; were one to
// reach the pool, the next run's Reset would panic on it.
func TestUnwoundRankCachesNeverRecycle(t *testing.T) {
	g := recycleGraph()
	opt := func(w int) Options { return cachedOpts(w, 1<<9, 1<<12, ScoreDegree) }
	want, wantSum := runDigested(t, recycleSnapshot(t, g, StoragePlain), opt(1))

	for _, workers := range []int{1, 4} {
		for _, wedge := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d/wedge=%v", workers, wedge)
			s := recycleSnapshot(t, g, StoragePlain)
			if _, err := s.RunCtx(context.Background(), opt(workers)); err != nil {
				t.Fatal(err)
			}

			// Cancel from inside the run: the last rank pulls the plug at
			// its 200th remote read, when (at Workers = 1) every earlier
			// rank has finished and recycled its caches — except rank 0
			// under the wedge, parked at its 40th operation.
			ctx, cancel := context.WithCancel(context.Background())
			o := opt(workers)
			reads := 0
			o.OnRemoteRead = func(rank int, _ graph.V) {
				if rank == recycleRanks-1 {
					if reads++; reads == 200 {
						cancel()
					}
				}
			}
			if wedge {
				o.Faults = &fault.Spec{WedgeRank: 0, WedgeAtOp: 40}
			}
			_, err := s.RunCtx(ctx, o)
			cancel()
			if !errors.Is(err, sched.ErrRunCanceled) {
				t.Fatalf("%s: err = %v, want ErrRunCanceled", name, err)
			}
			if n := max(len(s.caches.off), len(s.caches.adj)); n > workers {
				t.Errorf("%s: pool holds %d instances of a role after a canceled run, want at most %d", name, n, workers)
			}

			got, gotSum := runDigested(t, s, opt(workers))
			diffRuns(t, name, got, want, gotSum, wantSum)
		}
	}
}

// TestConcurrentCachedRunsShareSnapshot hands caches between the ranks of
// runs executing at once on one snapshot — the third with resident caches,
// so first-touch maps change hands too, and each run's ranks replace the
// snapshot's kept residency answers while the others' read theirs. Not skipped under -short: the race lane
// covers the pool's hand-off through it.
func TestConcurrentCachedRunsShareSnapshot(t *testing.T) {
	g := recycleGraph()
	opts := []Options{cachedOpts(2, 1<<9, 1<<12, ScoreLRU), cachedOpts(2, 1<<11, 1<<14, ScoreDegree),
		cachedOpts(2, 16<<10, 256<<10, ScoreDegree)}
	want := make([]*Result, len(opts))
	for i, o := range opts {
		fresh := recycleSnapshot(t, g, StoragePlain)
		var err error
		if want[i], err = fresh.RunCtx(context.Background(), o); err != nil {
			t.Fatal(err)
		}
		if off, adj := residentRanks(fresh, o); (off+adj > 0) != (i == 2) {
			t.Fatalf("query %d: %d resident caches", i, off+adj)
		}
	}
	s := recycleSnapshot(t, g, StoragePlain)
	for round := 0; round < 3; round++ {
		got := make([]*Result, len(opts))
		errs := make([]error, len(opts))
		var wg sync.WaitGroup
		for i, o := range opts {
			wg.Add(1)
			go func(i int, o Options) {
				defer wg.Done()
				got[i], errs[i] = s.RunCtx(context.Background(), o)
			}(i, o)
		}
		wg.Wait()
		for i := range opts {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			name := fmt.Sprintf("round %d query %d", round, i)
			diffRuns(t, name, got[i], want[i], nil, nil)
		}
	}
	for _, n := range []int{len(s.caches.off), len(s.caches.adj)} {
		if n < 1 || n > 4 {
			t.Errorf("pool holds %d instances of a role, want 1..4 (Workers × concurrent non-resident runs)", n)
		}
	}
}

// TestCachedRunAllocationGuard is the in-tree twin of the benchmark's
// lcc.alloc_mb_per_run on cached-uniform: a flat-degree graph under LRU with
// the benchmark's cache sizes and rank count, scaled down 8× in vertices
// and arcs. Once a first run has built the pool, a run must not allocate
// what the instances hold: per-run construction cost 100 MB here, a
// recycling run allocates 0.2 MB. At this scale both caches are resident
// (resident.go) on most ranks: the guard runs once with them, where the
// first run has also kept the residency answers and pooled the maps and
// Residents, and once with every rank held to CLaMPI instances.
func TestCachedRunAllocationGuard(t *testing.T) {
	g := gen.ErdosRenyi(1<<12, 1<<16, graph.Undirected, 1)
	for _, resident := range []bool{false, true} {
		s, err := NewSnapshotOpts(g, SnapshotOptions{Ranks: 32})
		if err != nil {
			t.Fatal(err)
		}
		opt := cachedOpts(1, 1<<18, 1<<22, ScoreLRU)
		if !resident {
			forceCLaMPI(s, opt)
		}
		if _, err := s.RunCtx(context.Background(), opt); err != nil {
			t.Fatal(err)
		}
		if off, adj := residentRanks(s, opt); resident != (off+adj > 0) {
			t.Fatalf("resident %v: %d resident caches", resident, off+adj)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.RunCtx(context.Background(), opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		const limit = 4 << 20
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("resident %v: second cached run allocated %.1f MB, want under %d MB", resident, float64(got)/(1<<20), limit>>20)
		}
	}
}

// TestCachePoolFootprint is the guard's twin for what the pool holds rather
// than what a run allocates: the uniform graph at the benchmark's sizes
// (cached-uniform: 32 ranks, 256 KiB + 4 MiB under LRU) on two workers, two
// runs, then the live heap each list of pooled instances keeps, measured by
// dropping the list. The pointer-based CLaMPI structures held 23.5 MB here
// (two pairs); the record slab must stay under 70 % of that. The residency
// law admits every C_adj of this graph, so the runs are held to CLaMPI
// instances (forceCLaMPI): unforced, the pool would hold no C_adj instance
// to measure.
func TestCachePoolFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("two cached runs on the benchmark's uniform graph")
	}
	g, err := gen.Load("uniform")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSnapshotOpts(g, SnapshotOptions{Ranks: 32})
	if err != nil {
		t.Fatal(err)
	}
	opt := cachedOpts(2, 1<<18, 1<<22, ScoreLRU)
	forceCLaMPI(s, opt)
	for run := 0; run < 2; run++ {
		if _, err := s.RunCtx(context.Background(), opt); err != nil {
			t.Fatal(err)
		}
	}
	// Two collections first: the second empties what sync.Pools kept
	// through the first.
	live := func() int {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int(ms.HeapAlloc)
	}
	nOff, nAdj := len(s.caches.off), len(s.caches.adj)
	all := live()
	s.caches.adj = nil
	noAdj := live()
	s.caches.off = nil
	adj, off := all-noAdj, noAdj-live()
	runtime.KeepAlive(s)
	held := off + adj
	const parent = 23.5e6
	t.Logf("%d C_offsets models hold %.1f MB, %d C_adj instances %.1f MB", nOff, float64(off)/1e6, nAdj, float64(adj)/1e6)
	if float64(held) > 0.7*parent {
		t.Errorf("pool holds %.1f MB, want at most 70 %% of the %.1f MB before the record slab", float64(held)/1e6, parent/1e6)
	}
}
