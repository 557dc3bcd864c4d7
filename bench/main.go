// Command bench is the repository's benchmark: four workloads over the
// public surfaces of the simulator and a real lccd, end-to-end metrics in
// host time, per-layer attribution timed from outside, and result checks
// against ground truth and pinned model values. README.md has the method.
//
//	go run -C bench . --workload pull-rmat --seed 0 --seconds 15 --trace 0
//	go run -C bench .                        # a whole set: every workload, both passes
//	go run -C bench . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/graph"
)

// result is the one JSON object a single-workload run ends its output with.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload and print its result as one JSON line; empty runs a whole set")
		seed     = flag.Uint64("seed", 0, "seed of the bench-side graph generators; 0 reproduces the registry graphs the pinned values belong to")
		seconds  = flag.Float64("seconds", 15, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced pass, per-layer metrics")
		quick    = flag.Bool("quick", false, "smoke profile: small graphs, the minimum op count of every loop, one boot")
		compare  = flag.Bool("compare", false, "compare two set records: -compare A.json B.json")
		outFile  = flag.String("out", "", "set mode: where the record goes (default bench/out/set-<unix time>.json)")
		capture  = flag.Bool("write-expected", false, "store the results in expected.json instead of checking them against it (seed 0 only)")
		child    = flag.String("child", "", "internal: run as a batch workload's measuring child")
		contPath = flag.String("container", "", "internal: the child's prepared container")
	)
	flag.Parse()
	if *quick {
		*seconds = 0 // every loop then runs its minimum count
	}
	var err error
	switch {
	case *child != "":
		err = childMain(childArgs{mode: *child, workload: *name, container: *contPath, seconds: *seconds, trace: *trace == 1, quick: *quick})
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare A.json B.json")
		} else {
			err = compareRecords(flag.Arg(0), flag.Arg(1))
		}
	case *name == "":
		err = runSet(*seed, *seconds, *outFile, *quick)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1, *quick, *capture)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// repoRoot is the checkout: go run -C bench starts the program inside
// bench/, a built binary may be started one level up.
func repoRoot() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "."
	}
	return ".."
}

// outDir holds everything a run writes; the root .gitignore names it.
func outDir() string {
	dir := filepath.Join(repoRoot(), "bench", "out")
	if abs, err := filepath.Abs(dir); err == nil {
		return abs // children and `go build` run with other working directories
	}
	return dir
}

// runOne runs one workload once and prints its result line. It fails — after
// printing the line — when any check did.
func runOne(name string, seed uint64, seconds float64, trace, quick, capture bool) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	out, err := runWorkload(w, seed, seconds, trace, quick)
	if err != nil {
		return err
	}
	switch pinned := seed == 0 && !quick && out.Fingerprint != nil; {
	case pinned && capture:
		if err := writeExpected(w.name, *out.Fingerprint); err != nil {
			return err
		}
	case pinned:
		if err := checkPinned(w.name, *out.Fingerprint); err != nil {
			out.problem("%v", err)
		}
	default:
		fmt.Fprintln(os.Stderr, "bench: pinned comparison skipped: expected.json holds the seed-0, full-size results only")
	}
	for _, p := range out.Problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	res := result{Correct: len(out.Problems) == 0 && out.Failed == 0, Attempted: out.Attempted, Failed: out.Failed, Metrics: out.Metrics}
	// The audit line first, the result line last: a set record keeps both.
	for _, v := range []any{struct {
		Audit audit `json:"audit"`
	}{out.Audit}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d check(s) failed, %d of %d ops failed", name, len(out.Problems), out.Failed, out.Attempted)
	}
	return nil
}

// runWorkload prepares the workload's input from the seed and runs one pass.
func runWorkload(w workload, seed uint64, seconds float64, trace, quick bool) (*outcome, error) {
	t0 := time.Now()
	g := w.generate(seed, quick)
	genS := time.Since(t0).Seconds()

	// The container is the dataset on disk that set-up starts from: plain
	// for the batch workloads, lccd's compressed disk-cache entry for the
	// daemon.
	var container, cacheDir string
	var err error
	if w.http {
		cacheDir = filepath.Join(outDir(), "graph-cache")
		container, err = writeDiskCache(cacheDir, w.twin, g)
	} else {
		container = filepath.Join(outDir(), w.name+".lcg")
		err = writeContainer(container, g)
	}
	if err != nil {
		return nil, err
	}

	out := &outcome{Metrics: metrics{}}
	if w.http {
		if err := runHTTP(w, g, cacheDir, container, seconds, trace, quick, out); err != nil {
			return nil, err
		}
	} else {
		a := childArgs{mode: "measure", workload: w.name, container: container, seconds: seconds, trace: trace, quick: quick}
		if trace {
			out, _, _, err = spawnChild(a, nil)
		} else {
			out, err = measureOps(a, g.NumArcs())
		}
		if err != nil {
			return nil, err
		}
	}
	if !trace {
		out.Metrics.set("setup_s", out.SetupS, "s")
		return out, checkDeclared(out, false)
	}
	st, err := os.Stat(container)
	if err != nil {
		return nil, err
	}
	out.Metrics.set("gen.generate_s", genS, "s")
	out.Metrics.set("graph.container_mb", float64(st.Size())/1e6, "MB")
	out.Metrics.set("graph.compress_ratio", graph.CompressGraph(g).CompressionRatio(), "ratio")
	out.Metrics.fill()
	return out, checkDeclared(out, true)
}

// checkDeclared makes a run whose metric names differ from the ones
// BENCHMARK.json declares for its pass a failed check.
func checkDeclared(out *outcome, trace bool) error {
	d, err := readDeclared()
	if err != nil {
		return err
	}
	want := metricNames(d.EndToEnd)
	if trace {
		want = metricNames(d.PerLayer)
	}
	var got []string
	for name := range out.Metrics {
		got = append(got, name)
	}
	sort.Strings(got)
	if !slices.Equal(got, want) {
		out.problem("metrics printed %v, BENCHMARK.json declares %v", got, want)
	}
	return nil
}

// writeExpected stores fp as name's pinned result in bench/expected.json.
func writeExpected(name string, fp fingerprint) error {
	path := filepath.Join(repoRoot(), "bench", "expected.json")
	all := map[string]fingerprint{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all[name] = fp
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
