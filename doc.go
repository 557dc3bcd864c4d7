// Package repro is a from-scratch Go reproduction of "Asynchronous
// Distributed-Memory Triangle Counting and LCC with RMA Caching" (Strausz,
// Vella, Di Girolamo, Besta, Hoefler — IPDPS 2022, arXiv:2202.13976).
//
// The package is the public facade over the internal subsystems:
//
//   - internal/graph — CSR graph core, I/O, preprocessing (§II-B), and
//     the storage plane: plain and varint/delta-compressed CSR behind
//     one Store contract, plus the versioned checksummed binary
//     container (DESIGN.md §9)
//   - internal/gen — deterministic dataset generators (Table II
//     stand-ins) with a binary disk cache for the large scale series
//   - internal/part — 1D block and cyclic vertex distribution (§III-A)
//   - internal/rma — simulated MPI-3 RMA runtime with per-rank clocks (§II-E)
//   - internal/clampi — the CLaMPI RMA caching layer, reimplemented, with
//     the paper's application-defined eviction scores (§II-F, §III-B);
//     its metadata is one slab of records addressed by uint32 id under a
//     hash table, a victim heap and a free-region tree of ids, recycled
//     across ranks and runs (DESIGN.md §2)
//   - internal/fault — deterministic, seeded fault schedules injected
//     into the substrates (DESIGN.md §7)
//   - internal/intersect — binary search, SSI, hybrid and hash kernels
//     (§II-C, §III-C, §V-A), split into a model plane (the reference
//     Algorithm 1/2 loops whose iteration counts define the simulated
//     compute charge) and a host plane (per-rank Scratch kernels —
//     branch-free merge, stamp-set bitmap, word-parallel AND and rank
//     queries over dense sets, depth-table search — that produce
//     identical counts and charges much faster; DESIGN.md §5)
//   - internal/lcc — the paper's contribution: fully asynchronous
//     distributed TC/LCC over RMA with caching (§III); shared-memory
//     kernels, the Schank–Wagner forward algorithm and orientations (§V);
//     and distributed Jaccard and the push-mode engine (future work ii)
//   - internal/grid — future work (i): the asynchronous 2D block engine
//   - internal/tric — the TriC query-response baseline (§IV-B) over its
//     simulated two-sided MPI / BSP substrate
//   - internal/experiments — regenerates every table and figure of §IV
//     plus the A1–A12 ablations
//   - internal/serve — the supervised serving layer: long-lived instances
//     over a shared graph snapshot, with run deadlines, cancellation,
//     panic isolation, priority admission queueing, memory-budgeted LRU
//     parking and manifest-backed restart recovery (DESIGN.md §8), plus
//     the self-healing plane: background integrity scrubbing with a
//     quarantine/auto-reload cycle, a per-run stall watchdog, and
//     server-wide load shedding (DESIGN.md §10)
//
// The facade exports only what a caller uses: every func in api.go is
// called by a program under examples/ or an Example in example_test.go
// (TestFacadeFuncsHaveCallers). Everything else is reached through the
// internal packages by the commands under cmd/.
//
// Three compiled Examples show the entry points. ExampleRunLCC is a
// one-shot run of the cached engine. ExampleSetGraphCacheDir loads a large
// graph instead of regenerating it: with the disk cache on, every dataset
// persists to the versioned, per-section-checksummed binary container on
// first generation. The engines accept either GraphStore — plain CSR or
// varint/delta-compressed CSR (~3× smaller) — and can keep each rank's
// locals compressed; simulated results are bit-identical regardless of
// representation (DESIGN.md §9). ExampleNewServeSupervisor
// builds the immutable setup once and runs queries against it supervised.
// The daemon serves the same over HTTP:
//
//	$ go run ./cmd/lccd -state-dir /var/lib/lccd &
//	$ curl -d '{"name":"fb","dataset":"fb-sim","ranks":8,"queue_depth":8}' localhost:8090/v1/load
//	$ curl -d '{"instance":"fb","method":"hybrid","timeout_ms":30000,"priority":1}' localhost:8090/v1/run
//	$ curl localhost:8090/v1/health
//	$ kill -9 %1 && go run ./cmd/lccd -state-dir /var/lib/lccd &  # fleet recovers
//	$ curl localhost:8090/v1/ps   # instance is back (parked), first query reloads it
//
// A run canceled by its context or deadline unwinds the simulated ranks
// at their next checkpoint (errors.Is(err, repro.ErrRunCanceled)); an
// engine-goroutine panic becomes a typed *repro.PanicError that fails the
// run, flips the instance unhealthy and leaves the process serving; the
// next query after either reproduces the golden pins bit for bit
// (DESIGN.md §8). With a queue (ServeConfig.QueueDepth), overload waits
// bounded by ServeQuery.Priority/QueueTimeout instead of bouncing; with a
// state dir, instances persist checksummed manifests and survive daemon
// restarts — including kill -9 — with bit-identical results.
//
// The serving plane also heals itself (DESIGN.md §10). ServeConfig's
// StallTimeout (stall_timeout_ms over HTTP) arms a per-run watchdog on a
// scheduler-level progress counter: a run making no progress for the
// full window is force-canceled with a typed stall error (internal/serve's
// *StallError; HTTP 500 "stalled") carrying per-rank progress and
// goroutine stacks — distinct from a deadline, which stays
// ErrRunCanceled. Snapshots carry per-rank CRC-32C sums; the daemon's
// background scrubber (lccd -scrub-period) re-verifies idle instances
// and, on a mismatch, quarantines and auto-reloads them so no query ever
// computes over corrupt bits. Server-wide admission sheds overload with
// typed reasons: a global run cap (lccd -run-cap, HTTP 429 "run-cap")
// and a resident-memory brownout for new loads when the budget is
// exhausted and nothing is evictable (HTTP 503 "memory-brownout").
// `make daemon-test` (cmd/lccd's TestDaemonChaos) drives a real daemon
// through a seeded kill/corrupt/storm/stall campaign asserting none of
// this ever loses a run or perturbs a pinned bit.
//
// Simulated ranks execute on real goroutines under a deterministic
// multicore scheduler (internal/sched): Workers bounds how many run
// concurrently, host wall-clock scales with cores, and every simulated
// result is bit-identical at any worker count — the golden tests sweep
// Workers ∈ {1, 2, 4, 8} to pin exactly that (DESIGN.md §4).
//
// There is no MPI for Go and this reproduction targets a single machine, so
// the distributed runtime is a simulation: ranks are goroutines with
// independent simulated clocks and every remote read charges the α + s·β
// network model the paper itself uses (§IV-D-1). DESIGN.md documents each
// substitution and §3 indexes the experiment behind every table and figure.
//
// The simulated hot path is allocation-free. RMA windows come in four
// kinds: writable byte windows keep snapshot-copy Gets (they are the
// regions peers write), while read-only windows — including the typed
// uint64/vertex windows the engines expose graph data through — serve
// every Get as an aliased view of the window region, and each request is a
// caller-owned value reused from one get to the next (issue → Wait → data).
// The aliasing contract is specified in DESIGN.md §2, and golden_test.go
// pins that this substrate change left every simulated result — SimTime,
// counters, LCC scores, triangle counts — bit-identical to the copying
// implementation.
//
// The same decoupling governs host compute: every engine routes its
// set intersections through a pooled per-rank intersect.Scratch whose
// fast kernels report the exact Algorithm 1/2 iteration counts the
// reference loops would have executed, so SimTime stays bit-identical
// while host wall-clock does not pay for the simulation's bookkeeping
// (DESIGN.md §5; differential and fuzz tests enforce the equivalence).
// What such a kernel would recompute per edge although it is a constant of
// the graph — where adj(v) crosses v, a long dense hub list as the bitmap
// the kernels would make of it — an
// lcc.Snapshot keeps in a lazily filled orientation index its runs share
// (DESIGN.md §8); every use re-checks it against the list in hand.
//
// The fetch pipeline completes the decoupling with a charge tape: every
// fetch-plane cost is a (kind, bytes) descriptor in one canonical per-rank
// sequence, folded into the float clock at pinned points, which frees the
// host side of a fetch — lookahead-k edge staging, precomputed resolve
// tables, caller-owned value requests for direct and cached gets alike —
// to be flat straight-line code.
// A golden per-rank digest of the observed charge sequence pins it for
// every golden configuration (DESIGN.md §6).
//
// A deterministic fault plane rides the same machinery: Options.Faults (or
// lccrun -faults) installs a seeded schedule of transient RMA failures,
// latency spikes, stall windows and cache unavailability, recovered by
// retry with capped exponential backoff and graceful cache degradation to
// direct RMA.
// Faults cost simulated time, never correctness: results stay bit-identical
// to the fault-free run and the faulted SimTime is itself reproducible at
// any worker count (DESIGN.md §7; TestFaultEquivalence pins it).
package repro
