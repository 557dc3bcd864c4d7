// Package trace records and analyzes the remote-read traces of the LCC
// engine: which vertices each rank fetched over RMA. The paper uses these
// traces for its data-reuse analyses — the reuse histogram of Fig. 1
// (right), the top-degree concentration of Fig. 4, and the degree/reuse and
// degree/entry-size correlations of Fig. 5 (Observations 3.1 and 3.2).
package trace

import (
	"math"
	"sort"

	"repro/internal/graph"
)

// Recorder collects remote-read events per rank. Each rank only appends to
// its own slice from its own goroutine, so no locking is needed; the
// aggregate views must be taken only after the run completes.
type Recorder struct {
	perRank [][]graph.V
}

// NewRecorder creates a recorder for p ranks.
func NewRecorder(p int) *Recorder {
	return &Recorder{perRank: make([][]graph.V, p)}
}

// Hook returns the callback to install as lcc.Options.OnRemoteRead.
func (rec *Recorder) Hook() func(rank int, v graph.V) {
	return func(rank int, v graph.V) {
		rec.perRank[rank] = append(rec.perRank[rank], v)
	}
}

// Counts returns, for every vertex, how many times it was the target of a
// remote read (aggregated over ranks, or for a single rank if rank >= 0).
func (rec *Recorder) Counts(n, rank int) []int {
	counts := make([]int, n)
	for r, reads := range rec.perRank {
		if rank >= 0 && r != rank {
			continue
		}
		for _, v := range reads {
			counts[v]++
		}
	}
	return counts
}

// HistogramBin is one bar of the Fig. 1 (right) reuse histogram: Reads
// vertices were each fetched Repetitions times.
type HistogramBin struct {
	Repetitions int // how many times a target was re-read (y axis)
	Reads       int // number of distinct targets with that repetition count
}

// ReuseHistogram builds the Fig. 1 (right) plot data from per-vertex read
// counts: for each repetition count, how many remote targets were read that
// many times. Zero-count vertices are omitted.
func ReuseHistogram(counts []int) []HistogramBin {
	byRep := map[int]int{}
	for _, c := range counts {
		if c > 0 {
			byRep[c]++
		}
	}
	reps := make([]int, 0, len(byRep))
	for r := range byRep {
		reps = append(reps, r)
	}
	sort.Ints(reps)
	out := make([]HistogramBin, len(reps))
	for i, r := range reps {
		out[i] = HistogramBin{Repetitions: r, Reads: byRep[r]}
	}
	return out
}

// TopShare returns the fraction of remote reads that target the top `frac`
// of the *highest in-degree* vertices — the number the paper highlights in
// Fig. 4 (91.9% for R-MAT, 11.7% for uniform at frac = 0.10).
func TopShare(g *graph.Graph, counts []int, frac float64) float64 {
	n := g.NumVertices()
	in := g.InDegrees()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return in[order[a]] > in[order[b]] })
	k := int(float64(n) * frac)
	if k < 1 {
		k = 1
	}
	top, total := 0, 0
	for i, v := range order {
		total += counts[v]
		if i < k {
			top += counts[v]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

// DegreePoint is one scatter point of Fig. 5: a vertex's degree against its
// remote-access count (C_offsets reuse) and its cache entry size in bytes
// (C_adj sizing).
type DegreePoint struct {
	Degree    int
	Accesses  int
	EntrySize int // bytes of the adjacency-list entry: 4·degree
}

// DegreeScatter builds Fig. 5's data for every remotely accessed vertex.
func DegreeScatter(g *graph.Graph, counts []int) []DegreePoint {
	var out []DegreePoint
	for v, c := range counts {
		if c == 0 {
			continue
		}
		d := g.OutDegree(graph.V(v))
		out = append(out, DegreePoint{Degree: d, Accesses: c, EntrySize: 4 * d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Degree < out[j].Degree })
	return out
}

// Correlation returns the Pearson correlation between degree and access
// count over the scatter — the quantitative form of Observation 3.1 ("the
// number of accesses to a vertex correlates with its degree").
func Correlation(points []DegreePoint) float64 {
	n := float64(len(points))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, syy, sxy float64
	for _, p := range points {
		x, y := float64(p.Degree), float64(p.Accesses)
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	cov := sxy - sx*sy/n
	vx := sxx - sx*sx/n
	vy := syy - sy*sy/n
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / (math.Sqrt(vx) * math.Sqrt(vy))
}
