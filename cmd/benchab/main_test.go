package main

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// rep is n copies of v.
func rep(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestJudge(t *testing.T) {
	// Ten ref runs with quartiles 100.25 and 102.75: IQR 2.5, median 101.5.
	ref := []float64{100, 100, 100, 101, 101, 102, 102, 103, 103, 103}
	shift := func(d float64) []float64 {
		out := make([]float64, len(ref))
		for i, v := range ref {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		ref, change []float64
		lower       bool
		bound       float64
		won         int
		verdict     verdict
	}{
		{"lower: every pair won, past the IQR", ref, shift(-10), true, 0.25, 10, gain},
		{"higher: every pair won, past the IQR", ref, shift(+10), false, 0.25, 10, gain},
		{"every pair won, inside the IQR", ref, shift(-2), true, 0.25, 10, noChange},
		{"nine of ten won", ref, slices.Concat(shift(-10)[:9], []float64{120}), true, 0.25, 9, gain},
		{"eight of ten won", ref, slices.Concat(shift(-10)[:8], []float64{120, 120}), true, 0.25, 8, noChange},
		// Two ties leave eight wins and no losses: not a gain, and not
		// "worse" either — a tie counts for neither side.
		{"ties count for neither side", ref, slices.Concat(shift(-10)[:8], ref[8:]), true, 0.25, 8, noChange},
		{"all ties", ref, ref, true, 0.25, 0, noChange},
		{"lower: every pair lost, past the IQR, inside the bound", ref, shift(+10), true, 0.25, 0, worseInside},
		{"higher: every pair lost, past the IQR, inside the bound", ref, shift(-10), false, 0.25, 0, worseInside},
		{"every pair lost, inside the IQR", ref, shift(+2), true, 0.25, 0, noChange},
		{"eight of ten lost", ref, slices.Concat(shift(+10)[:8], []float64{90, 90}), true, 0.25, 2, noChange},
		{"lower: past the bound", ref, shift(+30), true, 0.25, 0, worsePastBound},
		{"higher: past the bound", ref, shift(-30), false, 0.25, 0, worsePastBound},
		// The bound reads medians only: six bad pairs of ten are enough.
		{"past the bound on the median alone", ref, slices.Concat(shift(+40)[:6], shift(-1)[6:]), true, 0.25, 4, worsePastBound},
		{"exactly at the bound is inside it", rep(10, 100), rep(10, 125), true, 0.25, 0, worseInside},
		// A zero ref median has no relative bound to be inside of.
		{"zero median, equal", rep(10, 0), rep(10, 0), true, 0.25, 0, noChange},
		{"zero median, lower metric got worse", rep(10, 0), rep(10, 1), true, 0.25, 0, worsePastBound},
		{"zero median, higher metric got better", rep(10, 0), rep(10, 1), false, 0.25, 10, gain},
	} {
		j := judge(tc.ref, tc.change, tc.lower, tc.bound)
		if j.verdict != tc.verdict || j.won != tc.won {
			t.Errorf("%s: verdict %q with %d won, want %q with %d", tc.name, j.verdict, j.won, tc.verdict, tc.won)
		}
		if math.IsNaN(j.changePct) {
			t.Errorf("%s: changePct is NaN", tc.name)
		}
	}
	if j := judge(rep(10, 200), rep(10, 150), true, 0.25); j.changePct != -25 {
		t.Errorf("200 -> 150 reads %+g%%, want -25", j.changePct)
	}
}

func TestGate(t *testing.T) {
	for _, tc := range []struct {
		name              string
		pastBound         []string
		incorrect         int
		attempted, failed [2]int
		want              string // substring of the error; "" = passes, exit 0
	}{
		{"clean", nil, 0, [2]int{400, 400}, [2]int{0, 0}, ""},
		{"fewer operations attempted, none failed", nil, 0, [2]int{400, 380}, [2]int{0, 0}, ""},
		{"equal failed share", nil, 0, [2]int{400, 200}, [2]int{4, 2}, ""},
		{"smaller failed share", nil, 0, [2]int{400, 400}, [2]int{4, 3}, ""},
		{"one metric past its bound", []string{"op_p50_ms (25%)"}, 0, [2]int{400, 400}, [2]int{0, 0}, "worse than the bound: op_p50_ms (25%)"},
		{"a run reported correct=false", nil, 1, [2]int{400, 400}, [2]int{0, 0}, "correct=false"},
		{"larger failed share", nil, 0, [2]int{400, 400}, [2]int{0, 1}, "failed 1 of 400"},
		{"larger share of fewer operations", nil, 0, [2]int{400, 100}, [2]int{3, 1}, "failed 1 of 100"},
		{"every reason is named", []string{"setup_s", "peak_rss_mb"}, 2, [2]int{10, 10}, [2]int{0, 5}, "setup_s, peak_rss_mb; 2 runs reported correct=false; the change failed 5 of 10"},
	} {
		err := gate(tc.pastBound, tc.incorrect, tc.attempted, tc.failed)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: gate fails with %q, want a pass", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: gate passes, want an error naming %q", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: gate fails with %q, want it to name %q", tc.name, err, tc.want)
		}
	}
}

// TestOutputCancelKillsGroup: cancelling a command ends its children too.
// The shell's background sleep holds standard output; were only the shell
// killed, output would wait the 20 s out.
func TestOutputCancelKillsGroup(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := output(ctx, t.TempDir(), "sh", "-c", "sleep 20 & wait"); err == nil {
		t.Error("cancelled command reported success")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("output returned %v after the cancel, want < 5 s", d.Round(time.Millisecond))
	}
}
