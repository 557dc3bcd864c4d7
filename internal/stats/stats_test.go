package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("Q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("Q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("Q0.5 = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("Q0.25 = %v", got)
	}
}

func TestMedianCIContainsMedian(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 6 + int(seed%100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 50
		}
		lo, hi := medianCI(xs)
		m := Median(xs)
		return lo <= m && m <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMedianCISmallSamples(t *testing.T) {
	lo, hi := medianCI([]float64{5, 1, 3})
	if lo != 1 || hi != 5 {
		t.Errorf("small-sample CI = [%v,%v], want full range", lo, hi)
	}
}

func TestRepeatStopsWhenTight(t *testing.T) {
	calls := 0
	m := Repeat(func() float64 {
		calls++
		return 100 // zero variance: tight immediately at minRuns
	}, 5, 1000, 0.05)
	if calls != 5 {
		t.Errorf("Repeat ran %d times, want 5 (tight at minRuns)", calls)
	}
	if m.Median != 100 || m.Samples != 5 {
		t.Errorf("Measurement = %+v", m)
	}
	if !m.tight(0.05) {
		t.Error("constant measurement not tight")
	}
}

func TestRepeatHitsMaxOnNoisyData(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	calls := 0
	m := Repeat(func() float64 {
		calls++
		return rng.Float64() * 1000 // hopeless variance
	}, 3, 40, 0.001)
	if calls != 40 {
		t.Errorf("Repeat ran %d times, want maxRuns=40", calls)
	}
	if m.Samples != 40 {
		t.Errorf("Samples = %d", m.Samples)
	}
}

func TestTight(t *testing.T) {
	m := Measurement{Median: 100, CILo: 97, CIHi: 103}
	if !m.tight(0.05) {
		t.Error("3% CI should be tight at 5%")
	}
	if m.tight(0.01) {
		t.Error("3% CI should not be tight at 1%")
	}
}

func TestMeasurementString(t *testing.T) {
	m := Measurement{Median: 1.5, CILo: 1.4, CIHi: 1.6, Samples: 12}
	if s := m.String(); s == "" {
		t.Error("empty String()")
	}
}
