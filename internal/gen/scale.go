package gen

import "repro/internal/graph"

// scaleRegistry lists the large-scale datasets of the scale series
// (cmd/scalebench). They are loaded by name exactly like regular datasets —
// Lookup, Load and the disk cache all apply — but they are
// excluded from Names(): generating half a billion edges must be opted
// into explicitly, never hit by a registry sweep in tests or benchmarks.
//
// rmat-s21-ef256 is ~100× the arc count of rmat-s18-ef16, the largest
// standard dataset: 2^21 vertex ids at edge factor 256 sample ~537M edge
// slots; after dedup, degree<2 pruning and relabeling roughly 450M edges
// (~900M arcs, ~3.6 GB of plain adjacency) remain. First generation takes
// minutes; with the disk cache enabled subsequent loads are a checksummed
// binary read. Load memoizes the plain graph for the life of the process;
// the low-residency route reads the cache file with graph.ReadBinaryStore,
// which keeps it compressed, and runs with compressed per-rank locals.
var scaleRegistry = []Dataset{
	{
		Name: "rmat-s21-ef256", PaperName: "R-MAT S21 EF256 (scale series)", Kind: graph.Undirected,
		Make: func() *graph.Graph { return RMAT(DefaultRMAT(21, 256, graph.Undirected, 25)) },
	},
}
