GO ?= go

.PHONY: all build test vet fmt check loc bench-test bench-ab bench-scale daemon-test stress pprof fuzz

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# check is the local one-command gate, the lanes CI runs: bench-test is in
# it because nothing else here compiles bench/, which calls the rma and
# clampi request surface directly (bench/replay.go).
check: fmt vet build test bench-test

# loc prints what the working tree adds to and removes from REF in non-test
# Go, per directory, then the total with bench/ (the benchmark's own module)
# apart — the number ROADMAP's pacing rule asks every PR to state — and last
# the same for test Go. A new file counts once it is staged (git add).
#	make loc REF=HEAD~1
loc:
	@git diff --numstat "$(REF)" -- '*.go' ':!*_test.go' | awk '\
		{ d = $$3; if (!sub("/[^/]*$$", "", d)) d = "."; k = d ~ "^bench(/|$$)" ? "bench/" : "total"; \
		  a[d] += $$1; r[d] += $$2; a[k] += $$1; r[k] += $$2; if (!(d in seen)) { seen[d]; order[n++] = d } } \
		END { order[n++] = "total"; order[n++] = "bench/"; \
		  for (i = 0; i < n; i++) { d = order[i]; printf "%-24s +%-5d -%-5d net %+d\n", d, a[d], r[d], a[d] - r[d] } }'
	@git diff --numstat "$(REF)" -- '*_test.go' | awk '{ a += $$1; r += $$2 } \
		END { printf "%-24s +%-5d -%-5d net %+d\n", "test Go", a, r, a - r }'

# bench-test vets and tests the repository benchmark (BENCHMARK.json). It
# is a module of its own (bench/go.mod), so `go vet ./...` and
# `go test ./...` from the root never reach it.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-ab is the interleaved A/B a performance claim rests on
# (cmd/benchab): it clones REF into a temporary directory and runs ten
# alternating pairs of the benchmark's single-workload command, REF's
# checkout against the working tree, then prints per end-to-end metric both
# sides' median and quartiles, the pairs the working tree won and the
# verdict. ~15 minutes on an idle machine. It is also the gate: the exit
# status is 1 when an end-to-end metric reads worse than its BENCHMARK.json
# bound, a run reports correct=false, or the working tree fails a larger
# share of its operations than REF.
#	make bench-ab REF=HEAD~1 W=pull-rmat [SEEDS=0,7,11,23] [PAIRS=10]
SEEDS ?= 0,7,11,23
PAIRS ?= 10
bench-ab:
	$(GO) run ./cmd/benchab -ref "$(REF)" -workload "$(W)" -seeds "$(SEEDS)" -pairs $(PAIRS)

# bench-scale prints the storage-plane scale record: a scale-series dataset
# (~100× the golden suite) materialized through the graph disk cache —
# edges, bytes on disk, compression ratio, load time and RSS peak
# (cmd/scalebench; -dataset, -cache and -out are its flags). First run
# generates the dataset into .graph-cache — minutes for half a billion edges.
bench-scale:
	$(GO) run ./cmd/scalebench

# daemon-test runs cmd/lccd's tests against a real lccd (the test binary
# re-exec'd as the daemon): the load/query/health/drain loop, the handlers'
# typed rejections, and the seed-1 chaos campaign (DESIGN.md §10) whose
# prologue is the kill -9 restart-recovery lane. `go test ./...` runs them
# too; this target prints every cycle.
daemon-test:
	$(GO) test -count=1 -run 'TestDaemon' -v ./cmd/lccd

# stress hammers the serving layer's lifecycle machinery under the race
# detector: repeated cancellation, panic isolation, transition-edge and
# model-driven (TestLifecycleModel) runs across the scheduler and
# supervision plane.
stress:
	$(GO) test -race -run 'Lifecycle|Cancel|Panic' -count=10 ./internal/serve ./internal/sched

# pprof profiles one workload of the repository benchmark (BENCHMARK.json)
# from outside bench/, so perf PRs start from evidence about the thing they
# will be judged on (cmd/benchprof): the workload's registry graph, ranks and
# options on one worker, one untimed run, then RUNS profiled ones, top 25.
# WORKERS=2 is the count the benchmark runs at on the two-core reference host
# (Workers=0 there): two ranks share the last-level cache, so the cache-miss
# lines weigh what they weigh in op_p50_ms. The median it prints is raw wall
# time, comparable to the benchmark's host.op_p50_raw_ms, not to its
# drift-corrected op_p50_ms: on the reference host it reads about 1.8-2x
# op_p50_ms.
# MEM=1 adds the live heap after those runs (one collection first) and prints
# its top 15 by inuse_space: what the snapshot, its pooled CLaMPI instances
# and its orientation index hold between queries. Artifacts: cpu.pprof and
# mem.pprof (git-ignored; symbols travel in them), drill further with
# `go tool pprof -list <regexp> cpu.pprof`.
#	make pprof [W=pull-rmat|cached-rmat|cached-uniform|serve-http] [RUNS=5] [WORKERS=1] [MEM=1]
RUNS ?= 5
WORKERS ?= 1
pprof:
	$(GO) run ./cmd/benchprof -workload "$(or $(W),pull-rmat)" -runs $(RUNS) -workers $(WORKERS) -o cpu.pprof $(if $(MEM),-mem mem.pprof)
	$(GO) tool pprof -top -nodecount 25 cpu.pprof
	$(if $(MEM),$(GO) tool pprof -sample_index=inuse_space -top -nodecount 15 mem.pprof)

# fuzz runs the intersection-kernel, varint-codec, binary-container,
# fault-schedule, residency-law, offsets-model and lccd-wire fuzzers briefly
# — the same smokes CI runs.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzIntersectKernels$$' -fuzztime 30s ./internal/intersect
	$(GO) test -run '^$$' -fuzz '^FuzzVarintAdjacency$$' -fuzztime 30s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinaryStore$$' -fuzztime 30s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzFaultSchedule$$' -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz '^FuzzResidentLaw$$' -fuzztime 30s ./internal/clampi
	$(GO) test -run '^$$' -fuzz '^FuzzOneSizeMatchesCLaMPI$$' -fuzztime 30s ./internal/clampi
	$(GO) test -run '^$$' -fuzz '^FuzzLCCDRequest$$' -fuzztime 30s ./cmd/lccd
