package gen

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/graph"
)

// Dataset describes one named input graph of the evaluation, i.e. one row
// of the paper's Table II (or a scaled stand-in for it; see DESIGN.md §1).
type Dataset struct {
	Name      string // registry key, e.g. "lj-sim"
	PaperName string // the paper dataset it stands in for
	Kind      graph.Kind
	Make      func() *graph.Graph
}

// registry lists every dataset used by the benchmarks and the figure
// harness. All generators are seeded, so each entry is fully deterministic.
var registry = []Dataset{
	{
		Name: "fb-sim", PaperName: "Facebook circles", Kind: graph.Undirected,
		Make: func() *graph.Graph { return EgoNet(DefaultEgoNet(11)) },
	},
	{
		Name: "uniform", PaperName: "Uniform (Fig. 4)", Kind: graph.Undirected,
		Make: func() *graph.Graph { return ErdosRenyi(1<<15, 1<<19, graph.Undirected, 12) },
	},
	{
		Name: "rmat-s14-ef8", PaperName: "R-MAT S20 EF8", Kind: graph.Undirected,
		Make: func() *graph.Graph { return RMAT(DefaultRMAT(14, 8, graph.Undirected, 13)) },
	},
	{
		Name: "rmat-s14-ef16", PaperName: "R-MAT S20 EF16", Kind: graph.Undirected,
		Make: func() *graph.Graph { return RMAT(DefaultRMAT(14, 16, graph.Undirected, 14)) },
	},
	{
		Name: "rmat-s14-ef32", PaperName: "R-MAT S20 EF32", Kind: graph.Undirected,
		Make: func() *graph.Graph { return RMAT(DefaultRMAT(14, 32, graph.Undirected, 15)) },
	},
	{
		Name: "rmat-s15-ef16", PaperName: "R-MAT S21 EF16", Kind: graph.Undirected,
		Make: func() *graph.Graph { return RMAT(DefaultRMAT(15, 16, graph.Undirected, 16)) },
	},
	{
		Name: "rmat-s16-ef16", PaperName: "R-MAT S23 EF16", Kind: graph.Undirected,
		Make: func() *graph.Graph { return RMAT(DefaultRMAT(16, 16, graph.Undirected, 17)) },
	},
	{
		Name: "rmat-s18-ef16", PaperName: "R-MAT S30 EF16", Kind: graph.Undirected,
		Make: func() *graph.Graph { return RMAT(DefaultRMAT(18, 16, graph.Undirected, 18)) },
	},
	{
		Name: "orkut-sim", PaperName: "SNAP-Orkut", Kind: graph.Undirected,
		Make: func() *graph.Graph { return BarabasiAlbert(1<<15, 24, graph.Undirected, 19) },
	},
	{
		Name: "lj-sim", PaperName: "SNAP-LiveJournal", Kind: graph.Undirected,
		Make: func() *graph.Graph { return RMAT(DefaultRMAT(16, 8, graph.Undirected, 20)) },
	},
	{
		Name: "lj1-sim", PaperName: "SNAP-LiveJournal1", Kind: graph.Directed,
		Make: func() *graph.Graph { return RMAT(DefaultRMAT(16, 8, graph.Directed, 21)) },
	},
	{
		Name: "skitter-sim", PaperName: "SNAP-Skitter", Kind: graph.Undirected,
		Make: func() *graph.Graph { return RMAT(DefaultRMAT(15, 8, graph.Undirected, 22)) },
	},
	{
		Name: "uk-sim", PaperName: "uk-2005", Kind: graph.Directed,
		Make: func() *graph.Graph { return RMAT(DefaultRMAT(17, 12, graph.Directed, 23)) },
	},
	{
		Name: "wiki-sim", PaperName: "wiki-en", Kind: graph.Directed,
		Make: func() *graph.Graph { return BarabasiAlbert(1<<16, 16, graph.Directed, 24) },
	},
}

// cacheEntry memoizes one prepared dataset. The sync.Once decouples the
// registry lock from graph generation: cacheMu is held only long enough to
// find-or-create the entry, so concurrent Loads of different datasets (the
// benchmark harness, cmd/compare) generate in parallel instead of
// serializing on one global mutex, while concurrent Loads of the same
// dataset still generate exactly once.
type cacheEntry struct {
	once sync.Once
	g    *graph.Graph
	err  error
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*cacheEntry{}
)

// Names returns the registered dataset names in registry order.
func Names() []string {
	out := make([]string, len(registry))
	for i, d := range registry {
		out[i] = d.Name
	}
	return out
}

// Lookup returns the dataset descriptor for name, searching the standard
// registry and the scale-series registry (see scale.go).
func Lookup(name string) (Dataset, error) {
	for _, d := range registry {
		if d.Name == name {
			return d, nil
		}
	}
	for _, d := range scaleRegistry {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("gen: unknown dataset %q (have %v)", name, Names())
}

// Load generates (or returns the memoized) *prepared* graph for name. The
// preparation pipeline follows §II-B of the paper: generate, remove
// vertices of degree < 2, and apply a seeded random relabeling (Prepare
// always relabels: every generator here correlates id with degree).
//
// When the disk cache is enabled (SetCacheDir / LCC_GRAPH_CACHE), the
// first generation persists the prepared graph in the checksummed binary
// container and later process lifetimes deserialize it instead of
// regenerating; the per-entry sync.Once still guarantees at most one
// generation or read per process.
func Load(name string) (*graph.Graph, error) {
	cacheMu.Lock()
	e, ok := cache[name]
	if !ok {
		e = &cacheEntry{}
		cache[name] = e
	}
	cacheMu.Unlock()
	e.once.Do(func() {
		d, err := Lookup(name)
		if err != nil {
			e.err = err
			return
		}
		if path := CachePath(name); path != "" {
			if g, ok := loadFromDisk(path); ok {
				e.g = g
				return
			}
			e.g = Prepare(d.Make(), prepareSeed)
			persistToDisk(path, e.g)
			return
		}
		e.g = Prepare(d.Make(), prepareSeed)
	})
	return e.g, e.err
}

// MustLoad is Load for registry names known at compile time; it panics on
// unknown names.
func MustLoad(name string) *graph.Graph {
	g, err := Load(name)
	if err != nil {
		panic(err)
	}
	return g
}

// Prepare applies the paper's §II-B preprocessing to an arbitrary graph:
// degree<2 removal followed by a seeded random relabeling. The paper
// relabels whenever the input is degree-ordered so that 1D partitioning
// does not assign all the hub vertices to the same process; every
// generator here has such a bias (R-MAT's quadrant skew favours low ids,
// BA's early vertices are the hubs), so Prepare always relabels.
// Measured consequence if skipped: on R-MAT S15 at 64 ranks one rank owns
// ~9x the average arc count and the strong scaling of Fig. 9 collapses.
func Prepare(g *graph.Graph, seed uint64) *graph.Graph {
	pruned := graph.RemoveLowDegreeIter(g)
	n := pruned.NumVertices()
	perm := make([]graph.V, n)
	for i := range perm {
		perm[i] = graph.V(i)
	}
	rng := rand.New(rand.NewPCG(seed, 0xD1CE))
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	rl, err := graph.Relabel(pruned, perm)
	if err != nil {
		panic(err) // perm is a permutation by construction
	}
	return rl
}
