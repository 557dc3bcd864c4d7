package main

import (
	"sort"

	"repro/internal/stats"
)

func sorted(x []float64) []float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(x, n=4) does (the "exclusive" method) — the rule the
// acceptance criterion is stated in, so -compare and the driver agree;
// stats.Quantile interpolates the other ("inclusive") way.
func quartiles(x []float64) (q1, q3 float64) {
	s := sorted(x)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(x []float64) float64 {
	m := stats.Median(x)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(x)
	return (q3 - q1) / m
}

// tail returns the highest percentile of x that still has at least ten
// samples beyond it, and its value. ok is false below eleven samples: no
// percentile qualifies then.
func tail(x []float64) (pct, value float64, ok bool) {
	s := sorted(x)
	k := len(s) - 11
	if k < 0 {
		return 0, 0, false
	}
	return 100 * float64(k+1) / float64(len(s)), s[k], true
}
