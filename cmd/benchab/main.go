// Command benchab measures the working tree against another commit with the
// repository benchmark (BENCHMARK.json), the way a performance claim here is
// judged: it clones the reference commit into a temporary directory, runs
// alternating pairs of the benchmark's own single-workload command — one
// run from each checkout, the side that goes first flipping every pair —
// and prints, per end-to-end metric, each side's median and quartiles, the
// pairs the working tree won, and whether that amounts to a gain (at least
// nine pairs in ten, medians further apart than the reference's own
// quartiles) or to a regression past the metric's bound. It is the gate as
// well as the report: the exit status is 1 when any end-to-end metric reads
// worse than its bound, when a run reports correct=false, or when the working
// tree fails a larger share of its operations than the reference.
//
//	make bench-ab REF=HEAD~1 W=pull-rmat            # ten pairs, seeds 0,7,11,23
//	go run ./cmd/benchab -ref b0c8119 -workload cached-rmat -pairs 4 -seeds 0,3
//
// Run it from the repository root on an otherwise idle machine; a pair of
// 15-second runs takes about a minute and a half.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// spec is the part of BENCHMARK.json a comparison needs.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the JSON line a single-workload run ends its output with.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	ref := flag.String("ref", "", "commit to compare the working tree against (required)")
	workload := flag.String("workload", "", "benchmark workload to run (required)")
	pairs := flag.Int("pairs", 10, "pairs of runs")
	seedList := flag.String("seeds", "0,7,11,23", "workload seeds, used in turn")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *ref, *workload, *pairs, *seedList); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, ref, workload string, pairs int, seedList string) error {
	if ref == "" || workload == "" || pairs < 1 {
		return fmt.Errorf("usage: benchab -ref <commit> -workload <name> [-pairs 10] [-seeds 0,7,11,23]")
	}
	var seeds []uint64
	for _, f := range strings.Split(seedList, ",") {
		s, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("seed %q: %w", f, err)
		}
		seeds = append(seeds, s)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(sp.Command) == 0 {
		return fmt.Errorf("BENCHMARK.json names no command")
	}

	sha, err := output(ctx, ".", "git", "rev-parse", "--verify", ref+"^{commit}")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "bench-ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	refDir := filepath.Join(tmp, "ref")
	if _, err := output(ctx, ".", "git", "clone", "-q", "--no-checkout", ".", refDir); err != nil {
		return err
	}
	if _, err := output(ctx, refDir, "git", "checkout", "-q", "--detach", sha); err != nil {
		return err
	}
	fmt.Printf("ref %s (%.12s) in %s, change = working tree; %d pairs of %q, %g s a run\n",
		ref, sha, refDir, pairs, workload, sp.RunSeconds)

	sides := [2]struct{ name, dir string }{{"ref", refDir}, {"change", "."}}
	values := map[string]*[2][]float64{} // metric -> per-side values, pair by pair
	for _, m := range sp.EndToEnd {
		values[m.Name] = &[2][]float64{}
	}
	var attempted, failed [2]int
	incorrect := 0
	for p := 0; p < pairs; p++ {
		seed := seeds[p%len(seeds)]
		var got [2]result
		for k := 0; k < 2; k++ {
			side := (p + k) % 2 // even pairs run the ref first
			args := append(append([]string{}, sp.Command[1:]...),
				"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(sp.RunSeconds, 'g', -1, 64), "--trace", "0")
			out, err := output(ctx, sides[side].dir, sp.Command[0], args...)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", p+1, sides[side].name, err)
			}
			last := out[strings.LastIndexByte(out, '\n')+1:]
			if err := json.Unmarshal([]byte(last), &got[side]); err != nil {
				return fmt.Errorf("pair %d, %s: result line %q: %w", p+1, sides[side].name, last, err)
			}
			attempted[side] += got[side].Attempted
			failed[side] += got[side].Failed
			if !got[side].Correct {
				incorrect++
				fmt.Printf("pair %d, %s: the run reports correct=false\n", p+1, sides[side].name)
			}
		}
		fmt.Printf("pair %2d seed %-3d %s first:", p+1, seed, sides[p%2].name)
		for _, m := range sp.EndToEnd {
			a, b := got[0].Metrics[m.Name].Value, got[1].Metrics[m.Name].Value
			values[m.Name][0] = append(values[m.Name][0], a)
			values[m.Name][1] = append(values[m.Name][1], b)
			fmt.Printf("  %s %.5g -> %.5g", m.Name, a, b)
		}
		fmt.Println()
	}

	fmt.Printf("\n%-12s %-36s %-36s %8s %6s  verdict\n", "metric", "ref median [q1, q3]", "change median [q1, q3]", "change", "won")
	var pastBound []string
	for _, m := range sp.EndToEnd {
		r, c := values[m.Name][0], values[m.Name][1]
		j := judge(r, c, m.Better == "lower", m.Bound)
		if j.verdict == worsePastBound {
			pastBound = append(pastBound, fmt.Sprintf("%s (%g%%)", m.Name, 100*m.Bound))
		}
		fmt.Printf("%-12s %-36s %-36s %+7.1f%% %3d/%-2d  %s\n", m.Name, spread(r), spread(c),
			j.changePct, j.won, len(r), j.verdict)
	}
	for k, s := range sides {
		fmt.Printf("%s: %d of %d operations failed\n", s.name, failed[k], attempted[k])
	}
	return gate(pastBound, incorrect, attempted, failed)
}

// verdict is what one end-to-end metric's pairs of runs amount to, as the
// report prints it.
type verdict string

const (
	noChange       verdict = "no change shown"         // neither rule below is met
	gain           verdict = "gain"                    // won ≥ 9/10 of the pairs, medians apart by more than the ref's IQR
	worseInside    verdict = "worse, inside the bound" // lost ≥ 9/10 of the pairs by more than the ref's IQR
	worsePastBound verdict = "WORSE than the bound"    // the median is worse than the ref's by more than the metric's bound
)

// judgement is one metric's row of the report.
type judgement struct {
	won       int     // pairs the change won; a tie counts for neither side
	changePct float64 // change median against the ref median, signed as measured
	verdict   verdict
}

// judge reads one metric's paired values (ref[i] and change[i] are one pair)
// by the rule claims are held to: a gain needs nine pairs in ten and medians
// further apart than the distance between the reference's own quartiles; a
// median worse than the reference's by more than bound × that median is past
// the bound whatever the pairs say.
func judge(ref, change []float64, lowerIsBetter bool, bound float64) judgement {
	sign := 1.0 // +1 when larger is better
	if lowerIsBetter {
		sign = -1
	}
	won, ties := 0, 0
	for i := range ref {
		switch d := sign * (change[i] - ref[i]); {
		case d > 0:
			won++
		case d == 0:
			ties++
		}
	}
	n := len(ref)
	rm, cm := stats.Median(ref), stats.Median(change)
	iqr := stats.Quantile(ref, 0.75) - stats.Quantile(ref, 0.25)
	better := sign * (cm - rm) // > 0: the change is better
	j := judgement{won: won, verdict: noChange}
	if cm != rm { // equal medians read 0 %, also at a zero median
		j.changePct = 100 * (cm - rm) / rm
	}
	switch {
	case 10*won >= 9*n && better > iqr:
		j.verdict = gain
	case -better > bound*rm:
		j.verdict = worsePastBound
	case 10*(n-won-ties) >= 9*n && -better > iqr:
		j.verdict = worseInside
	}
	return j
}

// gate is the exit decision: nil when the comparison passes, otherwise an
// error naming every reason it does not — a metric past its bound, a run that
// reported correct=false on either side, or the change (index 1) failing a
// larger share of the operations it attempted than the reference (index 0).
func gate(pastBound []string, incorrectRuns int, attempted, failed [2]int) error {
	var why []string
	if len(pastBound) > 0 {
		why = append(why, "worse than the bound: "+strings.Join(pastBound, ", "))
	}
	if incorrectRuns > 0 {
		why = append(why, fmt.Sprintf("%d runs reported correct=false", incorrectRuns))
	}
	// failed[1]/attempted[1] > failed[0]/attempted[0], without the division
	if failed[1]*attempted[0] > failed[0]*attempted[1] {
		why = append(why, fmt.Sprintf("the change failed %d of %d operations, the ref %d of %d",
			failed[1], attempted[1], failed[0], attempted[0]))
	}
	if len(why) == 0 {
		return nil
	}
	return errors.New(strings.Join(why, "; "))
}

func spread(xs []float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", stats.Median(xs), stats.Quantile(xs, 0.25), stats.Quantile(xs, 0.75))
}

// output runs a command in dir and returns its standard output, trimmed;
// standard error passes through, so a failing run explains itself.
func output(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%s %s (in %s): %w", name, strings.Join(args, " "), dir, err)
	}
	return strings.TrimSpace(out.String()), nil
}
