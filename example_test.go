package repro_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"repro"
)

// The examples below have no Output line: `go test` compiles them but does
// not run them (one loads the 420 M-edge scale series). doc.go points here.

// A one-shot run of the paper's cached asynchronous engine.
func ExampleRunLCC() {
	g := repro.MustLoadDataset("fb-sim")
	res, err := repro.RunLCC(g, repro.LCCOptions{
		Ranks:             8,
		Workers:           0, // host cores running the ranks; 0 = GOMAXPROCS
		Method:            repro.MethodHybrid,
		DoubleBuffer:      true,
		Caching:           true,
		OffsetsCacheBytes: 16 * g.NumVertices(), // every (start, end) pair
		AdjCacheBytes:     16 << 20,             // 0 would turn C_adj off
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d triangles, %.2f simulated ms, %.0f%% hit rate\n",
		res.Triangles, res.SimTime/1e6, 100*res.HitRate())
}

// A large graph loaded, not regenerated: with the disk cache on, every
// dataset persists to the checksummed binary container on first generation
// and loads from it afterwards. Compressed per-rank locals shrink what the
// run holds (DESIGN.md §9); results are bit-identical to plain locals.
func ExampleSetGraphCacheDir() {
	repro.SetGraphCacheDir(".graph-cache") // or LCC_GRAPH_CACHE=...
	g := repro.MustLoadDataset("rmat-s21-ef256")
	res, err := repro.RunLCC(g, repro.LCCOptions{
		Ranks:             64,
		Caching:           true,
		OffsetsCacheBytes: 16 * g.NumVertices(),
		AdjCacheBytes:     64 << 20,
		Storage:           repro.StorageCompressed, // per-rank locals stay compressed too
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Triangles, "triangles")
}

// Repeated queries against one distribution, supervised (DESIGN.md §8): a
// canceled or expired run unwinds at the ranks' next checkpoint, and an
// engine panic fails only its run — the instance turns unhealthy, the
// process keeps serving, and the next query reproduces the golden bits.
func ExampleNewServeSupervisor() {
	sup := repro.NewServeSupervisor()
	if _, err := sup.Load("fb", repro.ServeConfig{
		Dataset: "fb-sim", Ranks: 8, MaxConcurrent: 2,
		StallTimeout: time.Minute, // watchdog: force-cancel wedged runs
	}); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := sup.Run(ctx, "fb", repro.ServeQuery{
		Options: repro.LCCOptions{Method: repro.MethodHybrid, DoubleBuffer: true},
		Timeout: 30 * time.Second,
	})
	var pe *repro.PanicError
	switch {
	case errors.Is(err, repro.ErrRunCanceled):
		fmt.Println("canceled:", err)
	case errors.As(err, &pe):
		fmt.Printf("rank %d panicked: %v\n", pe.Rank, pe.Value)
	case err != nil:
		log.Fatal(err)
	default:
		fmt.Println(res.Triangles, "triangles")
	}
}
