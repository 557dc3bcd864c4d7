// Storage-equivalence sweep: the golden pins of golden_test.go replayed
// over both host-side graph representations. The model plane addresses
// windows by plain-image byte coordinates regardless of how the host
// stores adjacency (DESIGN.md §9), so a run over a compressed source store
// — in memory or read back from its binary container — and a run whose
// per-rank locals are varint/delta-compressed must reproduce every pinned
// quantity bit for bit: SimTime float bits, triangle counts, LCC checksums,
// and the cache hit/miss counts asserted inside the "cached" configuration.
// Any drift means the storage plane leaked into the simulation.
package repro_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/serve"
)

// goldenStores materializes the fb-sim golden graph as each source store:
// plain, compressed, and the compressed container written to a file and
// read back by graph.ReadBinaryStore — the route that keeps a disk-cached
// dataset compressed.
func goldenStores(t *testing.T) []struct {
	name string
	st   graph.Store
} {
	t.Helper()
	g := gen.MustLoad("fb-sim")
	comp := graph.CompressGraph(g)

	path := filepath.Join(t.TempDir(), "fb-sim.lcg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinaryStore(f, comp); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f, err = os.Open(path); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	file, err := graph.ReadBinaryStore(f)
	if err != nil {
		t.Fatal(err)
	}

	return []struct {
		name string
		st   graph.Store
	}{
		{"plain", g},
		{"compressed", comp},
		{"file", file},
	}
}

// TestGoldenStorageEquivalence sweeps every golden configuration over the
// source stores × {plain, compressed} per-rank locals, against the single
// pinned table. Workers are swept exhaustively on the plain path
// (TestGoldenWorkerSweep); each storage combination runs the boundary
// counts.
func TestGoldenStorageEquivalence(t *testing.T) {
	stores := goldenStores(t)
	workerCounts := []int{1, 8}
	if testing.Short() {
		workerCounts = []int{1, 4}
	}
	for _, mode := range []lcc.StorageMode{lcc.StoragePlain, lcc.StorageCompressed} {
		mode := mode
		t.Run(fmt.Sprintf("locals=%s", mode), func(t *testing.T) {
			goldenStorage = mode
			defer func() { goldenStorage = 0 }()
			for _, src := range stores {
				src := src
				t.Run("src="+src.name, func(t *testing.T) {
					for _, wk := range workerCounts {
						wk := wk
						t.Run(fmt.Sprintf("workers=%d", wk), func(t *testing.T) {
							for _, cfg := range goldenConfigs {
								checkGoldenRun(t, cfg.name, cfg.run(t, src.st, wk, nil), cfg.want)
							}
						})
					}
				})
			}
		})
	}
}

// TestSnapshotStorageBudget pins the budget knob end to end: an
// unconstrained snapshot extracts plain locals, a budget below the plain
// footprint flips the same snapshot build to compressed locals, and both
// serve bit-identical pulls.
func TestSnapshotStorageBudget(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	plain, err := lcc.NewSnapshotOpts(g, lcc.SnapshotOptions{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if plain.StorageRepr() != "plain" {
		t.Fatalf("unbudgeted snapshot stored %q locals, want plain", plain.StorageRepr())
	}
	budget := plain.LocalBytes() - 1
	comp, err := lcc.NewSnapshotOpts(g, lcc.SnapshotOptions{Ranks: 4, MemBudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if comp.StorageRepr() != "compressed" {
		t.Fatalf("budget %d chose %q locals, want compressed", budget, comp.StorageRepr())
	}
	if comp.LocalBytes() >= plain.LocalBytes() {
		t.Fatalf("compressed locals occupy %d bytes, plain %d: no win", comp.LocalBytes(), plain.LocalBytes())
	}
	runGoldenConfig(t, "pull") // plain pins still hold after the sweep above
}

// TestCompressedLocalsWithIsolatedVertices runs compressed locals over a
// graph straight out of the generator: an R-MAT before gen.Prepare keeps its
// zero-degree vertices, and an empty list shares its window offset with the
// list after it — the read CompressedAdj.DecodeAt used to refuse. Cached
// and uncached, every quantity must match the plain locals' bit for bit.
func TestCompressedLocalsWithIsolatedVertices(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, graph.Undirected, 5))
	isolated := 0
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(graph.V(v)) == 0 {
			isolated++
		}
	}
	if isolated == 0 {
		t.Fatal("the generated graph has no isolated vertex to exercise")
	}
	for _, caching := range []bool{false, true} {
		opt := lcc.Options{Ranks: 8, Workers: 2, Method: intersect.MethodHybrid, DoubleBuffer: true,
			Caching: caching, OffsetsCacheBytes: 1 << 10, AdjCacheBytes: 1 << 13,
			AdjScorePolicy: lcc.ScoreDegree}
		opt.Storage = lcc.StoragePlain
		want, err := lcc.Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Storage = lcc.StorageCompressed
		got, err := lcc.Run(g, opt)
		if err != nil {
			t.Fatalf("caching=%v: compressed locals: %v", caching, err)
		}
		if math.Float64bits(got.SimTime) != math.Float64bits(want.SimTime) ||
			got.Triangles != want.Triangles || serve.ScoreBits(got.LCC) != serve.ScoreBits(want.LCC) {
			t.Errorf("caching=%v: compressed locals: SimTime %v triangles %d, plain %v and %d",
				caching, got.SimTime, got.Triangles, want.SimTime, want.Triangles)
		}
	}
}
