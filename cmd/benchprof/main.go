// Command benchprof takes a CPU profile of one of the repository benchmark's
// workloads (BENCHMARK.json) from outside bench/: the workload's registry
// graph, rank count and options as bench/workloads.go has them at seed 0, on
// one worker by default so the samples are the engine's and not the
// scheduler's (-workers 2 is the benchmark's own count on the reference host,
// where two ranks share the last-level cache as they do when it times an op). It
// builds the snapshot, makes one untimed run — the orientation index, the
// depth tables and the cache instances fill there, as they have when the
// benchmark times an op — then profiles the given number of runs, and fails
// if their triangles or SimTime bits are not the workload's pinned ones in
// bench/expected.json. With -mem it also writes, after the profiled runs and
// one collection, a heap profile: what the snapshot, its cache pool and its
// orientation index hold between queries (inuse_space). Run it from the
// repository root.
//
// The median it prints is raw wall time per run, the benchmark's
// host.op_p50_raw_ms, not its drift-corrected op_p50_ms: on the two-core
// reference host it reads about 1.8-2x op_p50_ms, so compare it only with
// itself or with host.op_p50_raw_ms.
//
//	make pprof W=pull-rmat            # five runs, top 25
//	make pprof W=cached-uniform MEM=1 # ... and the top 15 of the live heap
//	make pprof W=cached-uniform WORKERS=2
//	go run ./cmd/benchprof -workload cached-uniform -runs 3 -o /tmp/cpu.pprof
//
// Symbols travel in the profile: `go tool pprof -list <regexp> cpu.pprof`
// reads on from there.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/gen"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/stats"
)

// workload is bench/workloads.go's table at seed 0. The benchmark is a module
// of its own and cannot be imported; its pinned fingerprints (expected.json,
// see checkPinned) are the check that a configuration here has not drifted
// from it.
type workload struct {
	name, dataset string
	ranks         int
	opt           lcc.Options
}

func workloads() []workload {
	pull := lcc.Options{Method: intersect.MethodHybrid, DoubleBuffer: true}
	cached := func(policy lcc.ScorePolicy) lcc.Options {
		o := pull
		o.Caching, o.OffsetsCacheBytes, o.AdjCacheBytes, o.AdjScorePolicy = true, 1<<18, 1<<22, policy
		return o
	}
	return []workload{
		{"pull-rmat", "rmat-s15-ef16", 32, pull},
		{"cached-rmat", "rmat-s15-ef16", 32, cached(lcc.ScoreDegree)},
		{"cached-uniform", "uniform", 32, cached(lcc.ScoreLRU)},
		{"serve-http", "fb-sim", 4, pull}, // the engine's part of a query, without lccd around it
	}
}

// checkPinned compares res with the workload's entry in the benchmark's
// bench/expected.json, which it only reads: a copy of the workload table
// that profiles another graph, rank count or option set than the benchmark
// times would mislead every measurement taken with it.
func checkPinned(name string, res *lcc.Result) error {
	const path = "bench/expected.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var pinned map[string]struct {
		Triangles int64  `json:"triangles"`
		SimBits   string `json:"sim_time_bits"`
	}
	if err := json.Unmarshal(raw, &pinned); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want, ok := pinned[name]
	if !ok {
		return fmt.Errorf("%s has no entry for %s", path, name)
	}
	if got := fmt.Sprintf("%#016x", math.Float64bits(res.SimTime)); res.Triangles != want.Triangles || got != want.SimBits {
		return fmt.Errorf("%s drifted from the benchmark: %d triangles, sim time bits %s; %s pins %d, %s",
			name, res.Triangles, got, path, want.Triangles, want.SimBits)
	}
	return nil
}

// writeHeapProfile collects once, so the profile holds what is live — the
// snapshot is, the finished runs' garbage is not — and writes it to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.Lookup("heap").WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func main() {
	name := flag.String("workload", "pull-rmat", "benchmark workload to profile")
	runs := flag.Int("runs", 5, "profiled runs, after one untimed")
	out := flag.String("o", "cpu.pprof", "CPU profile to write")
	mem := flag.String("mem", "", "heap profile to write after the profiled runs (inuse_space; none if empty)")
	workers := flag.Int("workers", 1, "ranks executing at once (lcc.Options.Workers)")
	flag.Parse()
	if err := run(*name, *runs, *workers, *out, *mem); err != nil {
		fmt.Fprintln(os.Stderr, "benchprof:", err)
		os.Exit(1)
	}
}

func run(name string, runs, workers int, out, mem string) error {
	var w *workload
	var names []string
	all := workloads()
	for i := range all {
		names = append(names, all[i].name)
		if all[i].name == name {
			w = &all[i]
		}
	}
	if w == nil || runs < 1 || workers < 1 {
		return fmt.Errorf("want one of the workloads %v, runs >= 1 and workers >= 1, got %q, %d and %d", names, name, runs, workers)
	}
	g, err := gen.Load(w.dataset)
	if err != nil {
		return err
	}
	snap, err := lcc.NewSnapshotOpts(g, lcc.SnapshotOptions{Ranks: w.ranks})
	if err != nil {
		return err
	}
	opt := w.opt
	opt.Workers = workers
	ctx := context.Background()
	if _, err := snap.RunCtx(ctx, opt); err != nil {
		return err
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	var res *lcc.Result
	var ms []float64
	for i := 0; i < runs && err == nil; i++ {
		started := time.Now()
		res, err = snap.RunCtx(ctx, opt)
		ms = append(ms, time.Since(started).Seconds()*1e3)
	}
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = checkPinned(w.name, res)
	}
	if err == nil && mem != "" {
		err = writeHeapProfile(mem)
		runtime.KeepAlive(snap) // what it holds between queries is the point
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s on %d ranks, workers=%d: %d runs, median %.1f ms (fastest %.1f), %d triangles, sim time %.3f ms; profile in %s\n",
		w.name, w.dataset, w.ranks, workers, runs, stats.Median(ms), slices.Min(ms), res.Triangles, res.SimTime/1e6, out)
	return nil
}
