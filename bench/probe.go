package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/part"
	"repro/internal/rma"
	"repro/internal/serve"
	"repro/internal/stats"
)

// readContainer is the disk → resident-graph leg of set-up: a checksummed
// read of the prepared container and, for a compressed one, the decode.
func readContainer(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := graph.ReadBinaryStore(f)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return graph.Materialize(st), nil
}

// outcome is what one measuring pass hands back.
type outcome struct {
	Metrics   metrics  `json:"metrics"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems"` // check failures; empty means correct
	SetupS    float64  `json:"setup_s"`  // a setup child's own sample; in the parent, the corrected median
	Audit     audit    `json:"audit"`
	// Fingerprint is the result every op of the pass agreed on; the parent
	// compares it with expected.json when the pinned values apply.
	Fingerprint *fingerprint `json:"fingerprint,omitempty"`
}

// audit is what the drift correction of an untraced run was made from, so
// that every corrected number can be read beside its raw one.
type audit struct {
	OpP50RawMS float64 `json:"op_p50_raw_ms"`
	CalibP50MS float64 `json:"calib_p50_ms"` // of the kernel runs between ops; calibNominalMS is nominal
	SetupRawS  float64 `json:"setup_raw_s"`
}

func (o *outcome) problem(format string, a ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, a...))
}

// runner executes ops on one snapshot and checks every result against the
// first with the same caching setting.
type runner struct {
	snap *lcc.Snapshot
	out  *outcome
	ref  map[bool]fingerprint
}

// run executes one op and returns its result (nil if it failed) and its
// wall in seconds.
func (r *runner) run(opt lcc.Options) (*lcc.Result, float64) {
	t0 := time.Now()
	res, err := r.snap.RunCtx(context.Background(), opt)
	wall := time.Since(t0).Seconds()
	r.out.Attempted++
	if err != nil {
		r.out.Failed++
		r.out.problem("run: %v", err)
		return nil, wall
	}
	fp := fingerprintOf(res, opt.Caching)
	if ref, ok := r.ref[opt.Caching]; !ok {
		r.ref[opt.Caching] = fp
	} else if !fp.equal(ref) {
		r.out.Failed++
		r.out.problem("result %+v differs from the workload's first %+v", fp, ref)
	}
	return res, wall
}

// padded keeps per-rank observer counters on their own cache lines.
type padded struct {
	n int64
	_ [56]byte
}

// layerProbe is the traced pass: it times calls into each layer's public
// surface from here, derives the per-layer table from those timings plus
// the Workers=1, kernel-only, replay and observer ops, and runs the result
// checks. Everything a ratio is taken between runs once per round, so both
// sides see the same host state; rounds repeat for at least seconds (three
// minimum).
func layerProbe(w workload, container string, seconds float64, quick bool, tr *tracer, out *outcome) {
	m := out.Metrics
	started := time.Now()

	var g *graph.Graph
	var pt *part.Partition
	var locals []*part.LocalCSR
	var snap *lcc.Snapshot
	var err error
	setupID, endSetup := tr.start("setup", 0, 0)
	m.set("graph.read_s", tr.timed("graph.read", setupID, 0, func() { g, err = readContainer(container) }), "s")
	if err != nil {
		out.problem("%v", err)
		return
	}
	m.set("part.build_s", tr.timed("part.build", setupID, 0, func() { pt, err = part.Build(part.Block, g, w.ranks) }), "s")
	if err != nil {
		out.problem("part.Build: %v", err)
		return
	}
	m.set("part.extract_s", tr.timed("part.extract", setupID, 0, func() { locals = part.ExtractAll(g, pt) }), "s")
	m.set("lcc.snapshot_build_s", tr.timed("lcc.snapshot_build", setupID, 0, func() {
		snap, err = lcc.NewSnapshotOpts(g, lcc.SnapshotOptions{Ranks: w.ranks})
	}), "s")
	endSetup()
	if err != nil {
		out.problem("NewSnapshotOpts: %v", err)
		return
	}
	m.set("part.imbalance", part.Imbalance(g, pt), "ratio")
	m.set("part.edge_cut", part.EdgeCut(g, pt), "ratio")
	m.set("lcc.snapshot_mb", float64(snap.LocalBytes())/1e6, "MB")

	base := w.opt
	w1 := withWorkers(base, 1)
	plain := w1
	plain.Caching = false
	armed := base
	charges := make([]padded, w.ranks)
	var stream []graph.V // rank 0's remote reads, in issue order
	armed.ChargeObserver = func(rank int, _ rma.ChargeKind, _ int, _, _ float64) { charges[rank].n++ }
	armed.OnRemoteRead = func(rank int, target graph.V) {
		if rank == 0 {
			stream = append(stream, target)
		}
	}

	r := &runner{snap: snap, out: out, ref: map[bool]fingerprint{}}
	op := 0
	var res, plainRes *lcc.Result // latest result of a base / uncached op
	timedOp := func(name string, opt lcc.Options, keep **lcc.Result) float64 {
		op++
		id, end := tr.start("op", 0, op)
		s := tr.timed(name, id, op, func() {
			if got, _ := r.run(opt); got != nil {
				*keep = got
			}
		})
		end()
		return s
	}
	m.set("lcc.first_run_s", timedOp("lcc.first_run", base, &res), "s")

	cal := newCalib()
	var calMS, w1S, baseS, armedS, plainS, kernelS, allocs, allocMB []float64
	var armedWall float64
	var truth *lcc.SharedResult
	var ms0, ms1 runtime.MemStats
	for round := 0; round < 3 || time.Since(started).Seconds() < seconds; round++ {
		calMS = append(calMS, cal.wallMS())
		if base.Workers != 1 {
			w1S = append(w1S, timedOp("lcc.run_w1", w1, &res))
		}
		runtime.ReadMemStats(&ms0)
		baseS = append(baseS, timedOp("lcc.run", base, &res))
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
		allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
		stream = stream[:0]
		for i := range charges {
			charges[i].n = 0
		}
		armedWall = timedOp("lcc.run_observed", armed, &res)
		armedS = append(armedS, armedWall)
		if base.Caching {
			plainS = append(plainS, timedOp("lcc.run_w1_uncached", plain, &plainRes))
		}
		// The same intersections with no fetch plane around them.
		kernelS = append(kernelS, tr.timed("intersect.kernel_only", 0, 0, func() { truth = lcc.SharedLCC(g, intersect.MethodHybrid) }))
	}
	if res == nil {
		return
	}
	fp := r.ref[base.Caching]
	out.Fingerprint = &fp
	if base.Workers == 1 {
		w1S = baseS
	}
	runW1, runBase := stats.Median(w1S), stats.Median(baseS)
	m.set("lcc.run_w1_s", runW1, "s")
	if base.Workers != 1 { // a workload that asks for one worker has no speed-up to report
		m.set("sched.speedup", runW1/runBase, "ratio")
		m.set("sched.efficiency", runW1/runBase/float64(nproc()), "ratio")
	}
	m.set("lcc.allocs_per_run", stats.Median(allocs), "count")
	m.set("lcc.alloc_mb_per_run", stats.Median(allocMB), "MB")
	m.set("trace.overhead_share", stats.Median(armedS)/runBase-1, "ratio")
	m.set("host.calib_ms", stats.Median(calMS), "ms")
	m.set("host.op_p50_raw_ms", runBase*1e3, "ms")
	if pct, v, ok := tail(baseS); ok {
		m.set("host.op_tail_raw_ms", v*1e3, "ms")
		m.set("host.op_tail_pct", pct, "%")
	}
	var nCharges int64
	for i := range charges {
		nCharges += charges[i].n
	}
	m.set("model.charges", float64(nCharges), "count")
	m.set("model.charges_per_host_s", float64(nCharges)/armedWall, "1/s")

	kernel := stats.Median(kernelS)
	m.set("intersect.kernel_only_s", kernel, "s")
	m.set("intersect.ops", float64(truth.Ops), "count")
	m.set("intersect.ns_per_op", kernel*1e9/float64(truth.Ops), "ns")
	m.set("intersect.share", kernel/runW1, "ratio")
	if err := checkTruth(res, truth); err != nil {
		out.problem("%v", err)
	}

	uncachedSim := res.SimTime
	if base.Caching {
		m.set("clampi.added_s", runW1-stats.Median(plainS), "s")
		if plainRes != nil {
			uncachedSim = plainRes.SimTime
		}
	} else {
		m.set("lcc.fetch_plane_s", runW1-kernel, "s")
		// Decode cost of compressed per-rank storage, measured where no
		// cache sits between the decode and the kernels.
		csnap, err := lcc.NewSnapshotOpts(g, lcc.SnapshotOptions{Ranks: w.ranks, Storage: lcc.StorageCompressed})
		if err != nil {
			out.problem("compressed snapshot: %v", err)
		} else {
			cr := &runner{snap: csnap, out: out, ref: r.ref}
			var cs []float64
			for i := 0; i < 3; i++ {
				cs = append(cs, tr.timed("lcc.run_compressed", 0, 0, func() { cr.run(base) }))
			}
			m.set("graph.decode_added_s", stats.Median(cs)-runBase, "s")
		}
	}

	var remote, local int64
	var adj, off struct{ hits, misses, inserts, evictions int64 }
	for _, s := range res.PerRank {
		remote += s.RemoteReads
		local += s.LocalReads + s.DelegatedReads
		adj.hits += s.AdjCache.Hits
		adj.misses += s.AdjCache.Misses
		adj.inserts += s.AdjCache.Inserts
		adj.evictions += s.AdjCache.CapacityEvictions + s.AdjCache.ConflictEvictions
		off.hits += s.OffsetsCache.Hits
		off.misses += s.OffsetsCache.Misses
	}
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	agg := res.AggregateRMA()
	m.set("lcc.remote_reads", float64(remote), "count")
	m.set("lcc.local_reads", float64(local), "count")
	m.set("lcc.remote_read_fraction", res.RemoteReadFraction(), "ratio")
	m.set("rma.gets", float64(agg.Gets), "count")
	m.set("rma.local_gets", float64(agg.LocalGets), "count")
	m.set("rma.remote_mb", float64(agg.RemoteBytes)/1e6, "MB")
	m.set("clampi.adj_hits", float64(adj.hits), "count")
	m.set("clampi.adj_misses", float64(adj.misses), "count")
	m.set("clampi.adj_hit_ratio", ratio(adj.hits, adj.misses), "ratio")
	m.set("clampi.off_hit_ratio", ratio(off.hits, off.misses), "ratio")
	m.set("clampi.adj_inserts", float64(adj.inserts), "count")
	m.set("clampi.adj_evictions", float64(adj.evictions), "count")
	m.set("clampi.rank0_hit_ratio", ratio(res.PerRank[0].AdjCache.Hits, res.PerRank[0].AdjCache.Misses), "ratio")
	m.set("model.sim_time_ms", res.SimTime/1e6, "ms")
	m.set("model.comm_fraction", res.CommFraction(), "ratio")
	m.set("model.get_cost_ms", agg.GetCost/1e6, "ms")
	m.set("model.flush_wait_ms", agg.FlushWait/1e6, "ms")
	m.set("model.cached_speedup", uncachedSim/res.SimTime, "ratio")

	rp := replay(g.NumVertices(), pt, locals, stream, base)
	m.set("rma.replay_get_ns", rp.rmaNS, "ns")
	m.set("clampi.replay_get_ns", rp.clampiNS, "ns")
	m.set("clampi.replay_hit_ratio", rp.hitRatio, "ratio")

	if w.http {
		probeServe(w, g, snap, quick, tr, out)
	}
}

// probeServe times serve.Instance.Run against Snapshot.RunCtx on the same
// graph, interleaved, so the difference is the admission layer's own cost.
func probeServe(w workload, g *graph.Graph, snap *lcc.Snapshot, quick bool, tr *tracer, out *outcome) {
	ctx := context.Background()
	inst := serve.NewInstance(w.twin, serve.Config{Graph: g, Ranks: w.ranks, MaxConcurrent: nproc(), QueueDepth: 2 * nproc()})
	if err := inst.Start(); err != nil {
		out.problem("serve.Instance.Start: %v", err)
		return
	}
	defer inst.Stop()
	n := 40
	if quick {
		n = 2
	}
	// The layer costs ~0.1 ms on a ~35 ms run, far below what two medians
	// taken apart can resolve on this host: difference each pair instead.
	var direct, added []float64
	for i := 0; i < n; i++ {
		runDirect := func() float64 {
			return 1e3 * tr.timed("serve.direct_run", 0, 0, func() {
				out.Attempted++
				if _, err := inst.Run(ctx, serve.Query{Options: w.opt}); err != nil {
					out.Failed++
					out.problem("serve.Instance.Run: %v", err)
				}
			})
		}
		runBare := func() float64 {
			return 1e3 * tr.timed("lcc.run", 0, 0, func() {
				if _, err := snap.RunCtx(ctx, w.opt); err != nil {
					out.problem("RunCtx: %v", err)
				}
			})
		}
		var d, bare float64
		if i%2 == 0 { // alternate who goes first, so neither always inherits the other's garbage
			d, bare = runDirect(), runBare()
		} else {
			bare, d = runBare(), runDirect()
		}
		direct, added = append(direct, d), append(added, d-bare)
	}
	out.Metrics.set("serve.direct_run_ms", stats.Median(direct), "ms")
	out.Metrics.set("serve.admission_overhead_ms", stats.Median(added), "ms")
}
