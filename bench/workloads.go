package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/serve"
)

// prepareSeed is the relabeling seed gen.Load bakes into every registry
// dataset (gen keeps it unexported). expected.json's fb-sim entry, which
// must equal golden_test.go's pins, fails if the two ever disagree.
const prepareSeed = 0xC0FFEE

// workload is one set of inputs. The graph comes from generate — the
// program under test only ever receives the generated graph.Store — and
// seed 0 reproduces the registry dataset named by twin, so the values pinned
// in expected.json apply.
type workload struct {
	name  string
	twin  string // registry dataset seed 0 reproduces
	why   string
	ranks int
	opt   lcc.Options
	// http runs the ops through a real lccd process over loopback; the
	// others call Snapshot.RunCtx in a re-exec'd child of the benchmark.
	http     bool
	generate func(seed uint64, quick bool) *graph.Graph
}

func rmat(seed uint64, quick bool) *graph.Graph {
	scale := 15
	if quick {
		scale = 11
	}
	if seed == 0 {
		seed = 16
	}
	return gen.Prepare(gen.RMAT(gen.DefaultRMAT(scale, 16, graph.Undirected, seed)), prepareSeed)
}

func uniform(seed uint64, quick bool) *graph.Graph {
	n, m := 1<<15, 1<<19
	if quick {
		n, m = 1<<11, 1<<15
	}
	if seed == 0 {
		seed = 12
	}
	return gen.Prepare(gen.ErdosRenyi(n, m, graph.Undirected, seed), prepareSeed)
}

// egoNet keeps fb-sim's topology at every seed and lets the seed pick the
// relabeling instead: gen.EgoNet draws its 28 circle sizes from the seed, so
// generator seeds swing the work per query by ±15 % (arcs 163k–190k,
// triangles 351k–430k over six seeds) and would drown any bound. A new
// labeling still changes what the program sees — partition contents, the
// remote-read stream, SimTime — at constant work.
func egoNet(seed uint64, _ bool) *graph.Graph {
	if seed == 0 {
		seed = prepareSeed
	}
	return gen.Prepare(gen.EgoNet(gen.DefaultEgoNet(11)), seed)
}

var pull = lcc.Options{Method: intersect.MethodHybrid, DoubleBuffer: true}

func cached(policy lcc.ScorePolicy) lcc.Options {
	o := pull
	o.Caching, o.OffsetsCacheBytes, o.AdjCacheBytes, o.AdjScorePolicy = true, 1<<18, 1<<22, policy
	return o
}

func withWorkers(o lcc.Options, w int) lcc.Options {
	o.Workers = w
	return o
}

var workloads = []workload{
	{name: "pull-rmat", twin: "rmat-s15-ef16", ranks: 32, opt: pull, generate: rmat,
		why: "scale-free R-MAT s15, 32 ranks, no cache: intersection kernels are ~90% of the work and clampi does none"},
	{name: "cached-rmat", twin: "rmat-s15-ef16", ranks: 32, opt: cached(lcc.ScoreDegree), generate: rmat,
		why: "same graph with the paper's degree-scored caches: hit path, miss path and kernels all matter"},
	{name: "cached-uniform", twin: "uniform", ranks: 32, opt: cached(lcc.ScoreLRU), generate: uniform,
		why: "flat-degree Erdos-Renyi graph: cheap kernels, so clampi insert/evict bookkeeping is ~80% of host time"},
	{name: "serve-http", twin: "fb-sim", ranks: 4, opt: withWorkers(pull, 1), http: true, generate: egoNet,
		why: "smallest graph through a real lccd over loopback: per-query fixed costs (comm, admission, JSON, HTTP) at their largest share"},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// fingerprint is everything about a run's result that must repeat exactly:
// across the ops of a workload, across worker counts and, at seed 0, across
// commits (expected.json). The HTTP reply carries no per-rank cache counts,
// and serve-http runs uncached, so AdjHits/AdjMisses stay empty there.
type fingerprint struct {
	Triangles int64   `json:"triangles"`
	SumT      int64   `json:"sum_t"`
	ScoreBits string  `json:"score_bits"`
	SimBits   string  `json:"sim_time_bits"`
	AdjHits   []int64 `json:"adj_hits,omitempty"`
	AdjMisses []int64 `json:"adj_misses,omitempty"`
}

func hexBits(b uint64) string { return fmt.Sprintf("%#016x", b) }

func fingerprintOf(res *lcc.Result, caching bool) fingerprint {
	fp := fingerprint{
		Triangles: res.Triangles, SumT: res.SumT,
		ScoreBits: hexBits(serve.ScoreBits(res.LCC)),
		SimBits:   hexBits(math.Float64bits(res.SimTime)),
	}
	if caching {
		for _, s := range res.PerRank {
			fp.AdjHits = append(fp.AdjHits, s.AdjCache.Hits)
			fp.AdjMisses = append(fp.AdjMisses, s.AdjCache.Misses)
		}
	}
	return fp
}

func (fp fingerprint) equal(o fingerprint) bool { return reflect.DeepEqual(fp, o) }

//go:embed expected.json
var expectedJSON []byte

// checkPinned compares fp with the value captured in expected.json. It
// applies only to the full-size graphs at seed 0; callers say so otherwise.
func checkPinned(name string, fp fingerprint) error {
	var all map[string]fingerprint
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	want, ok := all[name]
	if !ok {
		return fmt.Errorf("expected.json has no entry for %s", name)
	}
	if !fp.equal(want) {
		return fmt.Errorf("%s: result %+v differs from pinned %+v", name, fp, want)
	}
	return nil
}

// checkTruth compares an engine result with the shared-memory ground truth.
func checkTruth(res *lcc.Result, truth *lcc.SharedResult) error {
	if res.Triangles != truth.Triangles {
		return fmt.Errorf("triangles %d, ground truth %d", res.Triangles, truth.Triangles)
	}
	for v, x := range res.LCC {
		if math.Float64bits(x) != math.Float64bits(truth.LCC[v]) {
			return fmt.Errorf("LCC[%d] = %v, ground truth %v", v, x, truth.LCC[v])
		}
	}
	return nil
}

func nproc() int { return runtime.GOMAXPROCS(0) }
