// Command benchdiff compares the repository's two newest perf-trajectory
// records (BENCH_<n>.json, emitted by bench.sh / make bench) and prints the
// per-benchmark deltas in ns/op and allocs/op. It exits non-zero when any
// benchmark regressed past the threshold, so CI fails visibly when a change
// walks back a hot-path win.
//
// Usage:
//
//	benchdiff [-dir .] [-max-regress 0.15] [-summary] [old.json new.json]
//
// With explicit file arguments the directory scan is skipped. ns/op noise
// on shared machines is real, so the default threshold is deliberately
// loose for time and strict for allocations (alloc counts are exact and
// deterministic; any increase above the slack is a structural regression).
//
// -summary switches the output to a GitHub-flavoured markdown delta table
// (CI appends it to $GITHUB_STEP_SUMMARY, so per-PR perf movement is
// visible on the run page without opening artifacts). Exit semantics are
// unchanged: regressions past the thresholds still fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type record struct {
	Date       string      `json:"date"`
	GoMaxProcs int         `json:"go_max_procs"` // 0 in records predating the field
	CPUModel   string      `json:"cpu_model"`
	Faults     string      `json:"faults"` // "" in records predating the fault plane — meaning off
	Mode       string      `json:"mode"`   // "" in records predating the serving layer — meaning micro
	Benchmarks []benchmark `json:"benchmarks"`
}

// faultMode normalizes the provenance field: records written before the
// fault plane existed carry no "faults" key, and bench.sh always measures
// with injection disabled, so the empty string reads as "off".
func (r *record) faultMode() string {
	if r.Faults == "" {
		return "off"
	}
	return r.Faults
}

// benchMode normalizes the measurement-plane tag: "micro" records measure
// substrate hot paths, "serve" records measure saturated per-query latency
// through the supervision plane (bench.sh BENCH_MODE=serve). Records
// written before the field existed are micro.
func (r *record) benchMode() string {
	if r.Mode == "" {
		return "micro"
	}
	return r.Mode
}

type benchmark struct {
	Name     string  `json:"name"`
	Iters    int64   `json:"iters"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   float64 `json:"bytes_per_op"`
	AllocsOp float64 `json:"allocs_per_op"`
}

func main() {
	dir := flag.String("dir", ".", "directory holding BENCH_<n>.json records")
	maxRegress := flag.Float64("max-regress", 0.15, "fail when ns/op grows more than this fraction")
	allocSlack := flag.Float64("alloc-slack", 0.10, "fail when allocs/op grows more than this fraction (plus 16 absolute)")
	summary := flag.Bool("summary", false, "print a markdown delta table (for $GITHUB_STEP_SUMMARY) instead of the plain report")
	flag.Parse()

	var oldPath, newPath string
	if flag.NArg() == 2 {
		oldPath, newPath = flag.Arg(0), flag.Arg(1)
	} else if flag.NArg() == 0 {
		var err error
		oldPath, newPath, err = newestPair(*dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	} else {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-dir .] [old.json new.json]")
		os.Exit(2)
	}

	oldRec, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newRec, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	// A record taken under fault injection measures recovery machinery,
	// not the hot path; diffing it against a fault-free record would read
	// as a huge phantom regression (or improvement). Refuse outright.
	if oldRec.faultMode() != newRec.faultMode() {
		fmt.Fprintf(os.Stderr, "benchdiff: fault modes differ (%s: %q, %s: %q): records are not comparable\n",
			filepath.Base(oldPath), oldRec.faultMode(), filepath.Base(newPath), newRec.faultMode())
		os.Exit(2)
	}

	// Micro records (substrate hot paths) and serve records (saturated
	// per-query latency through the supervision plane) measure different
	// quantities under different load shapes; a cross-mode diff is never a
	// regression signal. Refuse outright.
	if oldRec.benchMode() != newRec.benchMode() {
		fmt.Fprintf(os.Stderr, "benchdiff: bench modes differ (%s: %q, %s: %q): records are not comparable\n",
			filepath.Base(oldPath), oldRec.benchMode(), filepath.Base(newPath), newRec.benchMode())
		os.Exit(2)
	}

	oldBy := map[string]benchmark{}
	for _, b := range oldRec.Benchmarks {
		oldBy[b.Name] = b
	}
	names := make([]string, 0, len(newRec.Benchmarks))
	newBy := map[string]benchmark{}
	for _, b := range newRec.Benchmarks {
		newBy[b.Name] = b
		names = append(names, b.Name)
	}
	sort.Strings(names)

	// Engine wall-clock scales with host parallelism (the rank scheduler
	// runs simulated ranks on real goroutines), so ns/op is only
	// meaningful between records taken at the same GOMAXPROCS — including
	// records predating the field (go_max_procs 0, an undeclared
	// environment), which only match each other. Alloc counts are
	// parallelism-independent and always compared.
	timesComparable := oldRec.GoMaxProcs == newRec.GoMaxProcs

	if *summary {
		fmt.Printf("### benchdiff `%s` → `%s`\n\n", filepath.Base(oldPath), filepath.Base(newPath))
		if !timesComparable {
			fmt.Printf("_go\\_max\\_procs differ (%d → %d): allocs enforced, ns/op informational._\n\n",
				oldRec.GoMaxProcs, newRec.GoMaxProcs)
		}
		fmt.Println("| benchmark | ns/op (old) | ns/op (new) | Δ ns/op | allocs (old) | allocs (new) | Δ allocs | |")
		fmt.Println("|---|---:|---:|---:|---:|---:|---:|---|")
	} else {
		fmt.Printf("benchdiff %s -> %s\n", filepath.Base(oldPath), filepath.Base(newPath))
		if !timesComparable {
			fmt.Printf("go_max_procs differ (%d -> %d): comparing allocs only, ns/op is informational\n",
				oldRec.GoMaxProcs, newRec.GoMaxProcs)
		}
		fmt.Printf("%-28s %14s %14s %8s   %12s %12s %8s\n",
			"benchmark", "ns/op(old)", "ns/op(new)", "Δ%", "allocs(old)", "allocs(new)", "Δ")
	}
	failed := false
	for _, name := range names {
		nb := newBy[name]
		ob, ok := oldBy[name]
		if !ok {
			if *summary {
				fmt.Printf("| %s | – | %.1f | – | – | %.0f | – | new |\n", name, nb.NsPerOp, nb.AllocsOp)
			} else {
				fmt.Printf("%-28s %14s %14.1f %8s   %12s %12.0f %8s   (new)\n",
					name, "-", nb.NsPerOp, "-", "-", nb.AllocsOp, "-")
			}
			continue
		}
		nsDelta := 0.0
		if ob.NsPerOp > 0 {
			nsDelta = (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
		}
		allocDelta := nb.AllocsOp - ob.AllocsOp
		mark := ""
		if timesComparable && nsDelta > *maxRegress {
			mark, failed = "  TIME-REGRESSION", true
		}
		if allocDelta > ob.AllocsOp**allocSlack+16 {
			mark, failed = mark+"  ALLOC-REGRESSION", true
		}
		if *summary {
			flag := ""
			switch {
			case mark != "":
				flag = "🔴 " + strings.TrimSpace(mark)
			case timesComparable && nsDelta < -0.05:
				flag = "🟢"
			}
			fmt.Printf("| %s | %.1f | %.1f | %+.1f%% | %.0f | %.0f | %+.0f | %s |\n",
				name, ob.NsPerOp, nb.NsPerOp, 100*nsDelta, ob.AllocsOp, nb.AllocsOp, allocDelta, flag)
		} else {
			fmt.Printf("%-28s %14.1f %14.1f %+7.1f%%   %12.0f %12.0f %+8.0f%s\n",
				name, ob.NsPerOp, nb.NsPerOp, 100*nsDelta, ob.AllocsOp, nb.AllocsOp, allocDelta, mark)
		}
	}
	for name := range oldBy {
		if _, ok := newBy[name]; !ok {
			if *summary {
				fmt.Printf("| %s | | | | | | | dropped |\n", name)
			} else {
				fmt.Printf("%-28s   dropped from the new record\n", name)
			}
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchdiff: performance regression past threshold")
		os.Exit(1)
	}
}

func load(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

var benchFile = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// newestPair returns the pair of BENCH_<n>.json files in dir to diff by
// default: the newest record that has an older record of its bench mode,
// and the newest such predecessor. Records of different modes interleave
// freely on the trajectory (a serve record can land between two micro
// records), and a first-of-its-mode record never breaks the diff — it is
// skipped until a second one of its mode lands.
func newestPair(dir string) (old, new string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", "", err
	}
	var nums []int
	for _, e := range entries {
		if m := benchFile.FindStringSubmatch(e.Name()); m != nil {
			n, _ := strconv.Atoi(m[1])
			nums = append(nums, n)
		}
	}
	if len(nums) < 2 {
		return "", "", fmt.Errorf("need at least two BENCH_<n>.json records in %s, found %d", dir, len(nums))
	}
	sort.Ints(nums)
	paths := make([]string, len(nums))
	modes := make([]string, len(nums))
	for i, n := range nums {
		paths[i] = filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		rec, err := load(paths[i])
		if err != nil {
			return "", "", err
		}
		modes[i] = rec.benchMode()
	}
	o, n, ok := pickPair(modes)
	if !ok {
		return "", "", fmt.Errorf("no two BENCH_<n>.json records in %s share a bench mode", dir)
	}
	return paths[o], paths[n], nil
}

// pickPair is newestPair's choice over the records' bench modes, oldest
// record first: the indices of the pair, or ok false when no two records
// share a mode.
func pickPair(modes []string) (old, new int, ok bool) {
	for new = len(modes) - 1; new > 0; new-- {
		for old = new - 1; old >= 0; old-- {
			if modes[old] == modes[new] {
				return old, new, true
			}
		}
	}
	return 0, 0, false
}
