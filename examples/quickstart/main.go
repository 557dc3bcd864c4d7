// Quickstart: build a small graph, run the paper's fully asynchronous
// distributed LCC computation on a simulated 2-node machine, and print the
// scores — the Fig. 1 walk-through of the paper as a program.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	// The toy graph of Fig. 1 (left): six vertices on two compute nodes
	// (node A owns 0-2, node B owns 3-5 under 1D block partitioning).
	edges := []repro.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2},
		{Src: 1, Dst: 3}, {Src: 1, Dst: 4}, {Src: 2, Dst: 4},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5},
	}
	g, err := repro.BuildGraph(repro.Undirected, 6, edges)
	if err != nil {
		log.Fatal(err)
	}

	res, err := repro.RunLCC(g, repro.LCCOptions{
		Ranks:        2,                  // two simulated computing nodes
		Workers:      0,                  // host cores running the ranks: 0 = all (GOMAXPROCS); results are identical at any setting
		Method:       repro.MethodHybrid, // Eq. (3) decision rule
		DoubleBuffer: true,               // overlap comm with compute (§III-A)
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("triangles: %d\n", res.Triangles)
	for v, c := range res.LCC {
		fmt.Printf("LCC(%d) = %.3f  (degree %d)\n", v, c, g.OutDegree(repro.V(v)))
	}
	// SimTime is modeled machine time, decoupled from how fast the host
	// simulates it: every charge folds into the rank clocks in one
	// canonical order (DESIGN.md §6), so this number is bit-reproducible
	// on any machine, at any worker count.
	fmt.Printf("\nsimulated job time: %.2f µs (slowest of 2 ranks)\n", res.SimTime/1e3)
	fmt.Printf("remote adjacency reads: %.0f%% of fetches crossed nodes\n",
		100*res.RemoteReadFraction())

	// The same computation through the single-node reference — the
	// distributed engine must agree exactly.
	ref := repro.SharedLCC(g, repro.MethodHybrid)
	if ref.Triangles != res.Triangles {
		log.Fatalf("distributed (%d) and shared (%d) triangle counts disagree!",
			res.Triangles, ref.Triangles)
	}
	fmt.Println("\ndistributed result verified against the single-node reference ✓")

	// Host-side storage is invisible to the simulation: the same run over
	// the varint/delta-compressed representation — a third of the plain
	// CSR's memory, the regime that holds graphs 100× this size — must
	// reproduce every simulated bit (DESIGN.md §9).
	compact, err := repro.RunLCC(repro.CompressGraph(g), repro.LCCOptions{
		Ranks: 2, Method: repro.MethodHybrid, DoubleBuffer: true,
		Storage: repro.StorageCompressed,
	})
	if err != nil {
		log.Fatal(err)
	}
	if compact.Triangles != res.Triangles || compact.SimTime != res.SimTime {
		log.Fatalf("compressed storage changed the simulation: %d/%v vs %d/%v",
			compact.Triangles, compact.SimTime, res.Triangles, res.SimTime)
	}
	fmt.Println("compressed CSR storage: identical results and SimTime ✓")

	// The same run survives injected faults unchanged: a seeded schedule
	// of transient RMA failures (recovered by retry with backoff —
	// DESIGN.md §7) costs simulated time but never correctness.
	// `lccrun -faults "seed=1,get=0.01"` exposes the same knob on the
	// command line.
	spec, err := repro.ParseFaultSpec("seed=1,get=0.02")
	if err != nil {
		log.Fatal(err)
	}
	faulted, err := repro.RunLCC(g, repro.LCCOptions{
		Ranks: 2, Method: repro.MethodHybrid, DoubleBuffer: true, Faults: spec,
	})
	if err != nil {
		log.Fatal(err)
	}
	if faulted.Triangles != res.Triangles {
		log.Fatalf("faults changed the answer: %d vs %d", faulted.Triangles, res.Triangles)
	}
	fmt.Printf("under injected faults: same results, SimTime %.2f µs (+%.2f µs of recovery)\n",
		faulted.SimTime/1e3, (faulted.SimTime-res.SimTime)/1e3)

	// The durable serving plane (DESIGN.md §8): a supervisor with a
	// manifest store persists each instance's config as a checksummed
	// manifest, so a daemon crash — `lccd -state-dir` survives kill -9 —
	// recovers the fleet. Here in-process: the first supervisor is simply
	// abandoned (no shutdown), the second recovers from the manifests
	// alone, lazily — the instance returns parked and rebuilds its
	// snapshot on first query, bit-identically.
	stateDir, err := os.MkdirTemp("", "quickstart-state-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)
	store, err := repro.NewServeManifestStore(stateDir)
	if err != nil {
		log.Fatal(err)
	}
	sup := repro.NewServeSupervisor()
	sup.SetManifestStore(store)
	if _, err := sup.Load("fb", repro.ServeConfig{Dataset: "fb-sim", Ranks: 4, QueueDepth: 4}); err != nil {
		log.Fatal(err)
	}
	query := repro.ServeQuery{Options: repro.LCCOptions{Method: repro.MethodHybrid, DoubleBuffer: true}}
	before, err := sup.Run(context.Background(), "fb", query)
	if err != nil {
		log.Fatal(err)
	}
	// "Crash": drop the supervisor on the floor. Only the state dir survives.
	store2, err := repro.NewServeManifestStore(stateDir)
	if err != nil {
		log.Fatal(err)
	}
	sup2 := repro.NewServeSupervisor()
	sup2.SetManifestStore(store2)
	report := sup2.Recover(false)
	after, err := sup2.Run(context.Background(), "fb", query)
	if err != nil {
		log.Fatal(err)
	}
	if after.ScoreBits != before.ScoreBits || after.Triangles != before.Triangles {
		log.Fatalf("recovery drifted: %#x/%d vs %#x/%d",
			after.ScoreBits, after.Triangles, before.ScoreBits, before.Triangles)
	}
	fmt.Printf("crash recovery: %d instance(s) restored from manifests, bits identical ✓\n",
		len(report.Restored))
}
