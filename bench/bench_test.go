package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestStatsHelpers(t *testing.T) {
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// Python: statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4}); q1 != 1.25 || q3 != 3.75 {
		t.Errorf("quartiles(1..4) = %v, %v, want 1.25, 3.75", q1, q3)
	}
	if got := spread(ten); got != 1 { // (8.25-2.75)/5.5
		t.Errorf("spread(1..10) = %v, want 1", got)
	}

	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if pct, v, ok := tail(hundred); !ok || pct != 90 || v != 90 {
		t.Errorf("tail(1..100) = p%v %v %v, want p90 90: ten samples (91..100) lie beyond it", pct, v, ok)
	}
	if pct, v, ok := tail(hundred[:11]); !ok || v != 90 || pct != 100.0/11 {
		t.Errorf("tail of 11 samples = p%v %v %v, want the smallest sample", pct, v, ok)
	}
	if _, _, ok := tail(hundred[:10]); ok {
		t.Error("tail of 10 samples: no percentile has ten samples beyond it")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The per-layer table in layers.go and the one in BENCHMARK.json are the
// same list, and the workloads are the same four.
func TestDeclaredMatchesCode(t *testing.T) {
	d, err := readDeclared()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(perLayer))
	for i, lm := range perLayer {
		want[i] = lm.name
	}
	sort.Strings(want)
	got := metricNames(d.PerLayer)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("BENCHMARK.json per_layer = %v\nlayers.go = %v", got, want)
	}
	for _, n := range append(got, metricNames(d.EndToEnd)...) {
		if !nameRE.MatchString(n) {
			t.Errorf("metric name %q does not match %v", n, nameRE)
		}
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.go %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, workloads.go %q %q", i, d.Workloads[i], w.name, w.why)
		}
	}
}

// TestQuickProfile runs every workload through the command-line protocol in
// the -quick profile — the serve-http leg boots a real lccd — and checks
// that each pass prints exactly the metrics BENCHMARK.json declares for it.
func TestQuickProfile(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("the go tool is not on PATH: cannot build the benchmark and lccd")
	}
	d, err := readDeclared()
	if err != nil {
		t.Fatal(err)
	}
	declaredNames := [2][]string{metricNames(d.EndToEnd), metricNames(d.PerLayer)} // by --trace value
	bin := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for trace, want := range declaredNames {
			cmd := exec.Command(bin, "--workload", w.name, "--seed", "7", "--seconds", "1", "--trace", string(rune('0'+trace)), "-quick")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w.name, trace, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not a result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%t attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for n, m := range res.Metrics {
				got = append(got, n)
				if m.Unit == "" {
					t.Errorf("%s trace=%d: %s has no unit", w.name, trace, n)
				}
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%d printed %v\nBENCHMARK.json declares %v", w.name, trace, got, want)
			}
		}
		if _, err := os.Stat(tracePath(w.name)); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
}

// -compare must refuse a record that lacks a metric instead of printing a
// NaN ratio with an "ok" beside it, and must call a spread wider than the
// bound unresolved on setup_s as on any other metric.
func TestCompareRecords(t *testing.T) {
	d, err := readDeclared()
	if err != nil {
		t.Fatal(err)
	}
	rec := func(setup []float64) *record {
		r := &record{GoMaxProcs: 2, CPUModel: "x", Workloads: map[string]*workloadRecord{}}
		for _, w := range workloads {
			wr := &workloadRecord{Correct: true, EndToEnd: map[string]summary{}}
			for _, e := range d.EndToEnd {
				wr.EndToEnd[e.Name] = summary{Median: 1, Values: []float64{1, 1, 1, 1}}
			}
			if setup == nil {
				delete(wr.EndToEnd, "setup_s")
			} else {
				wr.EndToEnd["setup_s"] = summary{Median: 1, Values: setup}
			}
			r.Workloads[w.name] = wr
		}
		return r
	}
	write := func(r *record) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "set.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := write(rec([]float64{1, 1, 1, 1}))
	if err := compareRecords(steady, steady); err != nil {
		t.Errorf("a record against itself: %v", err)
	}
	if err := compareRecords(steady, write(rec(nil))); err == nil {
		t.Error("a record without setup_s compared without an error")
	}
	for _, e := range d.EndToEnd {
		if got := verdict(e, summary{Median: 1, Values: []float64{0.5, 1, 1, 1.5}}, summary{Median: 1, Values: []float64{1, 1, 1, 1}}); !strings.HasPrefix(got, "unresolved") {
			t.Errorf("%s with a spread above 1 against a bound of %g: verdict %q, want unresolved", e.Name, e.Bound, got)
		}
	}
}
