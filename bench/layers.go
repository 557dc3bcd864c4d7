package main

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// layerMetric declares one per-layer metric. count marks numbers taken from
// lcc.Result or /v1/ps rather than a clock: they repeat exactly, so -compare
// demands equality. moves names the end-to-end metric and workload the number
// should move when its layer changes (the prediction the guide asks to be
// written down before measuring); README.md carries the same table.
type layerMetric struct {
	name, unit string
	count      bool
	moves      string
}

// perLayer is every per-layer metric, in report order. A traced run prints
// all of them on every workload; one whose layer is not on a workload's path
// (lccd on the batch workloads, clampi on the uncached ones) reads 0 there.
var perLayer = []layerMetric{
	{"gen.generate_s", "s", false, "nothing end to end (prepare step)"},
	{"graph.read_s", "s", false, "setup_s"},
	{"graph.container_mb", "MB", true, "setup_s"},
	{"graph.compress_ratio", "ratio", true, "setup_s on serve-http (its container is compressed)"},
	{"graph.decode_added_s", "s", false, "no current workload (compressed storage is off everywhere)"},
	{"part.build_s", "s", false, "setup_s"},
	{"part.extract_s", "s", false, "setup_s"},
	{"part.imbalance", "ratio", true, "caps sched.speedup"},
	{"part.edge_cut", "ratio", true, "lcc.remote_read_fraction"},
	{"lcc.snapshot_build_s", "s", false, "setup_s"},
	{"lcc.snapshot_mb", "MB", true, "peak_rss_mb"},
	{"lcc.first_run_s", "s", false, "setup_s on serve-http (cold first answer)"},
	{"lcc.run_w1_s", "s", false, "base of the shares below"},
	{"lcc.fetch_plane_s", "s", false, "op_p50_ms on pull-rmat, by at most this share of lcc.run_w1_s"},
	{"lcc.remote_reads", "count", true, "must not move for host-only changes"},
	{"lcc.local_reads", "count", true, "must not move"},
	{"lcc.remote_read_fraction", "ratio", true, "must not move"},
	{"lcc.allocs_per_run", "count", false, "op_p50_ms and arcs_per_s on serve-http; peak_rss_mb"},
	{"lcc.alloc_mb_per_run", "MB", false, "peak_rss_mb"},
	{"sched.speedup", "ratio", false, "op_p50_ms, arcs_per_s on the batch workloads; none on serve-http (workers=1 per query)"},
	{"sched.efficiency", "ratio", false, "as sched.speedup"},
	{"intersect.kernel_only_s", "s", false, "op_p50_ms on pull-rmat"},
	{"intersect.ops", "count", true, "must not move unless the kernels change"},
	{"intersect.ns_per_op", "ns", false, "op_p50_ms on pull-rmat"},
	{"intersect.share", "ratio", false, "~0.9 on pull-rmat, less on cached-rmat, <=0.25 on cached-uniform"},
	{"rma.gets", "count", true, "must not move"},
	{"rma.local_gets", "count", true, "must not move"},
	{"rma.remote_mb", "MB", true, "must not move"},
	{"rma.replay_get_ns", "ns", false, "op_p50_ms on pull-rmat, bounded by lcc.fetch_plane_s"},
	{"clampi.added_s", "s", false, "op_p50_ms on cached-uniform (~0.8 of lcc.run_w1_s) and cached-rmat (~0.35); none on pull-rmat"},
	{"clampi.adj_hits", "count", true, "must not move"},
	{"clampi.adj_misses", "count", true, "must not move"},
	{"clampi.adj_hit_ratio", "ratio", true, "must not move"},
	{"clampi.off_hit_ratio", "ratio", true, "must not move"},
	{"clampi.adj_inserts", "count", true, "must not move"},
	{"clampi.adj_evictions", "count", true, "must not move"},
	{"clampi.rank0_hit_ratio", "ratio", true, "the engine's own number the replay is read against"},
	{"clampi.replay_get_ns", "ns", false, "op_p50_ms on the two cached workloads"},
	{"clampi.replay_hit_ratio", "ratio", true, "drift from clampi.rank0_hit_ratio shows where replay and engine differ"},
	{"model.sim_time_ms", "ms", true, "bit-equal across commits unless the change says it alters the model"},
	{"model.comm_fraction", "ratio", true, "as model.sim_time_ms"},
	{"model.get_cost_ms", "ms", true, "as model.sim_time_ms"},
	{"model.flush_wait_ms", "ms", true, "as model.sim_time_ms"},
	{"model.cached_speedup", "ratio", true, "the paper's headline ratio: SimTime uncached / SimTime of this workload"},
	{"model.charges", "count", true, "as model.sim_time_ms"},
	{"model.charges_per_host_s", "1/s", false, "simulator speed comparable across graphs"},
	{"serve.direct_run_ms", "ms", false, "op_p50_ms on serve-http"},
	{"serve.admission_overhead_ms", "ms", false, "op_p50_ms on serve-http"},
	{"serve.run_wall_p50_ms", "ms", false, "op_p50_ms on serve-http"},
	{"serve.queue_wait_p50_ms", "ms", false, "op_p50_ms on serve-http; ~0 while clients = slots"},
	{"serve.throughput_qps", "1/s", false, "arcs_per_s on serve-http (same window, raw clock)"},
	{"serve.served_delta", "count", false, "equals the 200s the clients saw"},
	{"serve.rejected_delta", "count", true, "failed ops"},
	{"lccd.http_overhead_p50_ms", "ms", false, "op_p50_ms on serve-http by at most ~1%"},
	{"lccd.boot_s", "s", false, "setup_s on serve-http"},
	{"lccd.load_s", "s", false, "setup_s on serve-http"},
	{"lccd.first_answer_s", "s", false, "setup_s on serve-http"},
	{"lccd.reply_bytes", "B", false, "informational"},
	{"lccd.latency_p99_ms", "ms", false, "informational: too few samples beyond it to gate"},
	{"host.calib_ms", "ms", false, "the drift yardstick itself; 70 is nominal"},
	{"host.op_p50_raw_ms", "ms", false, "op_p50_ms before drift correction"},
	{"host.op_tail_raw_ms", "ms", false, "highest percentile with >=10 samples beyond it; demoted from end to end for spread"},
	{"host.op_tail_pct", "%", false, "which percentile host.op_tail_raw_ms is"},
	{"trace.overhead_share", "ratio", false, "none: it is the cost of looking"},
}

// fill gives every declared per-layer metric a value, 0 where the workload
// does not reach the layer.
func (m metrics) fill() {
	for _, lm := range perLayer {
		if _, ok := m[lm.name]; !ok {
			m.set(lm.name, 0, lm.unit)
		}
	}
}
