// Package stats provides the measurement methodology of the paper's §IV-A,
// modeled on the LibLSB scientific-benchmarking library (Hoefler & Belli,
// SC'15): repeated measurements reported as the median with a 95%
// confidence interval, repeating "until 5% of the median is within the 95%
// CI" for shared-memory experiments.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Median returns the median of xs (the average of the two central elements
// for even lengths). It returns NaN for empty input.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) with linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return s[n-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// medianCI returns the nonparametric 95% confidence interval of the median
// using the binomial order-statistic bounds (the standard distribution-free
// interval LibLSB reports).
func medianCI(xs []float64) (lo, hi float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 6 {
		return s[0], s[n-1]
	}
	// Normal approximation of the binomial order statistics: ranks
	// n/2 ± 1.96·sqrt(n)/2.
	d := 1.96 * math.Sqrt(float64(n)) / 2
	loIdx := int(math.Floor(float64(n)/2 - d))
	hiIdx := int(math.Ceil(float64(n)/2+d)) - 1
	if loIdx < 0 {
		loIdx = 0
	}
	if hiIdx >= n {
		hiIdx = n - 1
	}
	return s[loIdx], s[hiIdx]
}

// Measurement is the result of a repeated measurement.
type Measurement struct {
	Median  float64
	CILo    float64
	CIHi    float64
	Samples int
}

// tight reports whether the CI half-width is within frac of the median —
// the paper's stopping criterion with frac = 0.05.
func (m Measurement) tight(frac float64) bool {
	if m.Median == 0 {
		return true
	}
	half := math.Max(m.Median-m.CILo, m.CIHi-m.Median)
	return half <= frac*math.Abs(m.Median)
}

func (m Measurement) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (n=%d)", m.Median, m.CILo, m.CIHi, m.Samples)
}

// Repeat runs f at least minRuns times and until the 95% CI of the median
// is within frac of the median (or maxRuns is reached), returning the
// measurement — the §IV-A methodology for shared-memory experiments.
func Repeat(f func() float64, minRuns, maxRuns int, frac float64) Measurement {
	if minRuns < 3 {
		minRuns = 3
	}
	if maxRuns < minRuns {
		maxRuns = minRuns
	}
	var xs []float64
	for len(xs) < maxRuns {
		xs = append(xs, f())
		if len(xs) >= minRuns {
			m := summarize(xs)
			if m.tight(frac) {
				return m
			}
		}
	}
	return summarize(xs)
}

func summarize(xs []float64) Measurement {
	lo, hi := medianCI(xs)
	return Measurement{Median: Median(xs), CILo: lo, CIHi: hi, Samples: len(xs)}
}
