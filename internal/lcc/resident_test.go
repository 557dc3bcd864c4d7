package lcc

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/rma"
)

// TestResidentLawCoverage counts the ranks the residency law admits on the
// benchmark's twin graphs at its rank count, cache sizes and policies
// (cached-uniform: LRU, cached-rmat: degree scores): every C_adj on both,
// every C_offsets on R-MAT, and none on uniform, whose 16-byte pairs exceed
// 256 KiB on every rank. Before the law admitted over-full buckets it took
// no C_adj on uniform and 23 on R-MAT. It logs one line per graph, which CI
// puts on its summary page.
func TestResidentLawCoverage(t *testing.T) {
	for _, tc := range []struct {
		graph            string
		policy           ScorePolicy
		wantOff, wantAdj int
	}{
		{"uniform", ScoreLRU, 0, 32},
		{"rmat-s15-ef16", ScoreDegree, 32, 32},
	} {
		g, err := gen.Load(tc.graph)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSnapshotOpts(g, SnapshotOptions{Ranks: 32})
		if err != nil {
			t.Fatal(err)
		}
		opt := s.options(cachedOpts(1, 1<<18, 1<<22, tc.policy))
		comm := rma.NewCommWorkers(opt.Ranks, opt.Model, opt.Workers)
		wOff, wAdj := s.windows(comm)
		crowdMin, crowdMax := -1, 0
		for r := range s.ranks {
			w := newWorker(comm.Rank(r), s, wOff, wAdj, opt)
			a := s.residency.set.ans[r].Load()
			n := len(a.adjCrowd)
			if crowdMin < 0 || n < crowdMin {
				crowdMin = n
			}
			crowdMax = max(crowdMax, n)
			w.close()
			s.caches.recycle(w)
		}
		off, adj := residentRanks(s, opt)
		t.Logf("resident law: %s at 32 ranks: C_offsets on %d/32 ranks, C_adj on %d/32, %d–%d crowded C_adj lists a rank",
			tc.graph, off, adj, crowdMin, crowdMax)
		if off != tc.wantOff || adj != tc.wantAdj {
			t.Errorf("%s: C_offsets resident on %d ranks, C_adj on %d; want %d and %d", tc.graph, off, adj, tc.wantOff, tc.wantAdj)
		}
	}
}
