package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// rounds is how many untraced runs of each workload a set holds, interleaved
// round-robin; quartiles of fewer than four values say little.
const rounds = 4

// record is one set: every workload run rounds times untraced and once
// traced, on one host at one seed.
type record struct {
	GoMaxProcs int                        `json:"go_max_procs"`
	CPUModel   string                     `json:"cpu_model"`
	GoVersion  string                     `json:"go_version"`
	Seed       uint64                     `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Workloads  map[string]*workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	Audit     []audit            `json:"audit"` // one per round: what each round's drift correction was made from
	PerLayer  metrics            `json:"per_layer"`
}

// summary is one end-to-end metric over the rounds of a set.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"` // one per round, in run order
}

// declared is BENCHMARK.json as far as this package reads it.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []declaredMetric `json:"end_to_end"`
	PerLayer  []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only
}

func metricNames(ms []declaredMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func readDeclared() (*declared, error) {
	b, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo") // absent off Linux: the record says "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runSelf runs one single-workload pass in a process of its own and decodes
// the result line it ends with and the audit line before it.
func runSelf(name string, seed uint64, seconds float64, trace int, quick bool) (*result, audit, error) {
	// A failed check exits 1 after printing its line: decode first.
	b, runErr := selfOutput("-workload", name, fmt.Sprintf("-seed=%d", seed),
		fmt.Sprintf("-seconds=%g", seconds), fmt.Sprintf("-trace=%d", trace), fmt.Sprintf("-quick=%t", quick))
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var res result
	var au struct{ Audit audit }
	if len(lines) < 2 {
		return nil, audit{}, fmt.Errorf("%s: no audit and result lines (%v)", name, runErr)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, audit{}, fmt.Errorf("%s: no result line (%v): %w", name, runErr, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &au); err != nil {
		return nil, audit{}, fmt.Errorf("%s: no audit line: %w", name, err)
	}
	return &res, au.Audit, nil
}

// runSet runs the workloads round-robin — a quarter of each one's untraced
// runs per round — so that host drift spreads
// over all of them instead of landing on whichever ran during it; then the
// traced pass; then prints every metric by name and writes the record.
func runSet(seed uint64, seconds float64, outFile string, quick bool) error {
	rec := &record{
		GoMaxProcs: nproc(), CPUModel: cpuModel(), GoVersion: runtime.Version(),
		Seed: seed, Seconds: seconds, Workloads: map[string]*workloadRecord{},
	}
	for _, w := range workloads {
		rec.Workloads[w.name] = &workloadRecord{Correct: true, EndToEnd: map[string]summary{}}
	}
	note := func(wr *workloadRecord, res *result) {
		wr.Correct = wr.Correct && res.Correct
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
	}
	for round := 1; round <= rounds; round++ {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "bench: round %d/%d %s\n", round, rounds, w.name)
			res, au, err := runSelf(w.name, seed, seconds, 0, quick)
			if err != nil {
				return err
			}
			wr := rec.Workloads[w.name]
			note(wr, res)
			wr.Audit = append(wr.Audit, au)
			for name, m := range res.Metrics {
				s := wr.EndToEnd[name]
				s.Unit, s.Values = m.Unit, append(s.Values, m.Value)
				wr.EndToEnd[name] = s
			}
		}
	}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: traced pass %s\n", w.name)
		res, _, err := runSelf(w.name, seed, seconds, 1, quick)
		if err != nil {
			return err
		}
		wr := rec.Workloads[w.name]
		note(wr, res)
		wr.PerLayer = res.Metrics
		for name, s := range wr.EndToEnd {
			s.Median = stats.Median(s.Values)
			s.Q1, s.Q3 = quartiles(s.Values)
			wr.EndToEnd[name] = s
		}
	}

	d, err := readDeclared()
	if err != nil {
		return err
	}
	fmt.Printf("go_max_procs=%d cpu=%q seed=%d seconds=%g rounds=%d\n", rec.GoMaxProcs, rec.CPUModel, seed, seconds, rounds)
	allCorrect := true
	for _, w := range workloads {
		wr := rec.Workloads[w.name]
		allCorrect = allCorrect && wr.Correct
		fmt.Printf("\n%s  correct=%t attempted=%d failed=%d\n", w.name, wr.Correct, wr.Attempted, wr.Failed)
		for _, e := range d.EndToEnd {
			s := wr.EndToEnd[e.Name]
			fmt.Printf("  %-28s %14.6g %-6s q1 %.6g q3 %.6g n=%d bound %g\n", e.Name, s.Median, s.Unit, s.Q1, s.Q3, len(s.Values), e.Bound)
		}
		for i, au := range wr.Audit {
			fmt.Printf("  round %d before correction    op_p50 %.6g ms, setup %.6g s, kernel %.6g ms (nominal %g)\n",
				i+1, au.OpP50RawMS, au.SetupRawS, au.CalibP50MS, calibNominalMS)
		}
		for _, lm := range perLayer {
			m := wr.PerLayer[lm.name]
			fmt.Printf("  %-28s %14.6g %-6s moves: %s\n", lm.name, m.Value, m.Unit, lm.moves)
		}
	}
	if outFile == "" {
		outFile = filepath.Join(outDir(), fmt.Sprintf("set-%d.json", time.Now().Unix()))
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(outFile), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outFile, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nrecord: %s\n", outFile)
	if !allCorrect {
		return fmt.Errorf("a check failed; see above")
	}
	return nil
}

// verdict judges metric e of B against A.
func verdict(e declaredMetric, a, b summary) string {
	worse := (b.Median - a.Median) / a.Median
	if e.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread(a.Values) > e.Bound || spread(b.Values) > e.Bound:
		return fmt.Sprintf("unresolved (spread A %.3f B %.3f)", spread(a.Values), spread(b.Values))
	case worse > e.Bound:
		return "worse"
	}
	return "ok"
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareRecords prints one row per workload and end-to-end metric: both
// medians, B's as a ratio of A's, the bound from BENCHMARK.json and a
// verdict. "worse": B's median is worse than A's by more than the bound.
// "unresolved": either side's inter-quartile spread is wider than the bound,
// so the medians cannot be told apart at that resolution. Count metrics must
// be equal outright.
func compareRecords(pathA, pathB string) error {
	a, err := readRecord(pathA)
	if err != nil {
		return err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return err
	}
	if a.GoMaxProcs != b.GoMaxProcs || a.CPUModel != b.CPUModel || a.Seed != b.Seed || a.Seconds != b.Seconds {
		return fmt.Errorf("records are not comparable: go_max_procs %d/%d, cpu %q/%q, seed %d/%d, seconds %g/%g",
			a.GoMaxProcs, b.GoMaxProcs, a.CPUModel, b.CPUModel, a.Seed, b.Seed, a.Seconds, b.Seconds)
	}
	d, err := readDeclared()
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-15s %-12s %14s %14s %9s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A", "bound", "verdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s missing from a record", w.name)
		}
		for _, e := range d.EndToEnd {
			sa, sb := wa.EndToEnd[e.Name], wb.EndToEnd[e.Name]
			if !(sa.Median > 0 && sb.Median > 0) {
				return fmt.Errorf("%s %s: median A %v, B %v: a record lacks the metric", w.name, e.Name, sa.Median, sb.Median)
			}
			v := verdict(e, sa, sb)
			if v == "worse" {
				bad++
			}
			fmt.Printf("%-15s %-12s %14.6g %14.6g %9.4f %6.2f  %s\n", w.name, e.Name, sa.Median, sb.Median, sb.Median/sa.Median, e.Bound, v)
		}
		for _, lm := range perLayer {
			if va, vb := wa.PerLayer[lm.name].Value, wb.PerLayer[lm.name].Value; lm.count && va != vb {
				fmt.Printf("%-15s %-28s count differs: A %v B %v\n", w.name, lm.name, va, vb)
				bad++
			}
		}
		if !wa.Correct || !wb.Correct {
			fmt.Printf("%-15s a check failed in record %s\n", w.name, map[bool]string{true: "B", false: "A"}[wa.Correct])
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d row(s) worse, unequal or incorrect", bad)
	}
	return nil
}
