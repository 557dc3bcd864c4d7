package experiments

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/intersect"
	"repro/internal/lcc"
)

// This file runs the cheaper experiments end to end and asserts the
// *shape* the paper (or DESIGN.md §3) predicts: who wins, what grows, what
// shrinks. The expensive sweeps (fig9, fig10) are left to cmd/figures, and
// TestFig7Shape runs fig7's only outside -short; table3's wall-clock rates
// are left to cmd/figures too, and TestTable3Shape holds its claim in
// modelled intersection iterations instead. TestFig8Shape and
// TestAblationPushPullShape run their tables' configurations without the
// tables.

// cell parses the leading float of a formatted table cell ("123.4",
// "91.9%", "1.23x", "669.9 KiB" all yield their leading number).
func cell(t *testing.T, s string) float64 {
	t.Helper()
	end := len(s)
	for i, r := range s {
		if (r < '0' || r > '9') && r != '.' && r != '-' && r != '+' {
			end = i
			break
		}
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// TestDesignIndexMatchesRegistry holds DESIGN.md §3's Id column equal to
// All()'s ids, in order: an experiment added to or removed from either side
// alone fails here.
func TestDesignIndexMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "## §3 Experiments index\n")
	if !ok {
		t.Fatal("DESIGN.md has no §3 experiments index")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var doc []string
	for _, line := range strings.Split(section, "\n") {
		if id, ok := strings.CutPrefix(line, "| `"); ok {
			id, _, _ = strings.Cut(id, "`")
			doc = append(doc, id)
		}
	}
	if !slices.Equal(doc, idList()) {
		t.Errorf("DESIGN.md §3 lists\n  %v\nAll() registers\n  %v", doc, idList())
	}
}

// TestTable3Shape holds Table III's ordinal claim — hybrid ahead of SSI
// ahead of binary search on every graph — in the modelled metric, SharedLCC's
// intersection iterations, which unlike the table's wall-clock rates is
// deterministic. Hybrid must save at least a fifth of SSI's iterations.
func TestTable3Shape(t *testing.T) {
	graphs := table3Graphs
	if testing.Short() {
		graphs = graphs[:2]
	}
	for _, c := range graphs {
		g := gen.MustLoad(c.name)
		hybrid := lcc.SharedLCC(g, intersect.MethodHybrid).Ops
		ssi := lcc.SharedLCC(g, intersect.MethodSSI).Ops
		binary := lcc.SharedLCC(g, intersect.MethodBinary).Ops
		t.Logf("table III %s: hybrid %d, ssi %d, binary %d ops (hybrid/ssi %.3f)",
			c.name, hybrid, ssi, binary, float64(hybrid)/float64(ssi))
		if float64(hybrid) >= 0.8*float64(ssi) {
			t.Errorf("%s: hybrid %d ops is not under 0.8 × SSI's %d", c.name, hybrid, ssi)
		}
		if ssi >= binary {
			t.Errorf("%s: SSI %d ops is not under binary search's %d", c.name, ssi, binary)
		}
	}
}

// TestFig8Shape holds Fig. 8's claim at every rank count of the table, in
// its own configuration (fig8Options): degree scores leave at most 98% of
// LRU+positional's C_adj misses, summed over ranks, and finish in less
// simulated time.
func TestFig8Shape(t *testing.T) {
	ranks := fig8Ranks
	if testing.Short() {
		ranks = []int{4, 16}
	}
	g := gen.MustLoad(fig7Dataset)
	adjMisses := func(res *lcc.Result) (n int64) {
		for _, s := range res.PerRank {
			n += s.AdjCache.Misses
		}
		return n
	}
	for _, p := range ranks {
		lru, err := lcc.Run(g, fig8Options(g, p, lcc.ScoreLRU))
		if err != nil {
			t.Fatal(err)
		}
		deg, err := lcc.Run(g, fig8Options(g, p, lcc.ScoreDegree))
		if err != nil {
			t.Fatal(err)
		}
		_, lruRate := lru.CacheMissRates()
		_, degRate := deg.CacheMissRates()
		lruMiss, degMiss := adjMisses(lru), adjMisses(deg)
		t.Logf("fig 8 p=%d: C_adj misses degree %d, lru %d (%.3f); miss rate %.3f vs %.3f; sim %.1f vs %.1f ms",
			p, degMiss, lruMiss, float64(degMiss)/float64(lruMiss), degRate, lruRate, deg.SimTime/1e6, lru.SimTime/1e6)
		if float64(degMiss) > 0.98*float64(lruMiss) {
			t.Errorf("p=%d: degree's %d C_adj misses are not at most 0.98 × LRU's %d", p, degMiss, lruMiss)
		}
		if deg.SimTime >= lru.SimTime {
			t.Errorf("p=%d: degree's sim time %.1f ms is not below LRU's %.1f ms", p, deg.SimTime/1e6, lru.SimTime/1e6)
		}
	}
}

// TestFig7Shape holds Fig. 7's sweep, each cache on its own over the 11
// relative sizes with the other off: neither comm time nor miss rate ever
// rises with size; at full size at least 99% of the misses are compulsory;
// full C_adj saves at least 45% of the uncached comm time, more than full
// C_offsets does, which saves at least 30%. With the other cache off the
// uncached comm time is 825.1 ms, C_offsets goes 942.2 → 515.4 ms (−37.5%)
// and C_adj 1025.3 → 403.7 ms (−51.1%; the paper: −51.6%).
//
// It does not assert the paper's claim that small C_adj caches already save
// ~30%: here C_adj costs comm time up to 10% relative size (+24.3% at 1%,
// +13.1% at 10%) and breaks even before 20% (−3.6%), because few of its
// accesses hit and every miss adds CLaMPI's management charges to its get.
// That gap is an open fidelity claim (DESIGN.md §3), not a shape this model
// holds.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("23 engine runs")
	}
	tab := Fig7CacheSize()
	var uncached float64
	if _, err := fmt.Sscanf(tab.Notes[0], "uncached communication time: %f ms", &uncached); err != nil || uncached <= 0 {
		t.Fatalf("note %q: %v", tab.Notes[0], err)
	}
	full := map[string]float64{}
	for _, cache := range []string{"C_offsets", "C_adj"} {
		var rows [][]string
		for _, r := range tab.Rows {
			if r[0] == cache {
				rows = append(rows, r)
			}
		}
		if len(rows) != 11 {
			t.Fatalf("%s: %d rows, want 11", cache, len(rows))
		}
		for i := 1; i < len(rows); i++ {
			prev, r := rows[i-1], rows[i]
			if cell(t, r[3]) > cell(t, prev[3]) {
				t.Errorf("%s: comm time rose from %s ms at %s to %s ms at %s", cache, prev[3], prev[1], r[3], r[1])
			}
			if cell(t, r[5]) > cell(t, prev[5]) {
				t.Errorf("%s: miss rate rose from %s at %s to %s at %s", cache, prev[5], prev[1], r[5], r[1])
			}
		}
		first, last := rows[0], rows[len(rows)-1]
		full[cache] = cell(t, last[3])
		t.Logf("fig 7: %s comm %s → %s ms (%s vs uncached %.1f ms), miss rate %s → %s, compulsory share %s at full size",
			cache, first[3], last[3], last[4], uncached, first[5], last[5], last[6])
		if comp := cell(t, last[6]); comp < 0.99 {
			t.Errorf("%s: compulsory share %.3f at full size, want ≥ 0.99", cache, comp)
		}
	}
	if full["C_adj"] > 0.8*uncached {
		t.Errorf("full C_adj comm %.1f ms saves under 20%% of the uncached %.1f ms", full["C_adj"], uncached)
	}
	if full["C_adj"] > 0.55*uncached {
		t.Errorf("full C_adj comm %.1f ms saves under 45%% of the uncached %.1f ms", full["C_adj"], uncached)
	}
	if full["C_offsets"] > 0.70*uncached {
		t.Errorf("full C_offsets comm %.1f ms saves under 30%% of the uncached %.1f ms", full["C_offsets"], uncached)
	}
	if full["C_adj"] >= full["C_offsets"] {
		t.Errorf("full C_adj comm %.1f ms is not below full C_offsets' %.1f ms", full["C_adj"], full["C_offsets"])
	}
}

// TestFig1Shape holds Fig. 1's claim, that rank 0's remote reads come back
// to the same targets: each target it reads is read at least 8 times on
// average, and the tail reaches past 64 repetitions. At the table's
// introduction fb-sim on 2 ranks read 1,971 targets 41,129 times (20.9 each),
// none fewer than 5 times, and 10 fell in the 65-256 bin.
func TestFig1Shape(t *testing.T) {
	tab := Fig1DataReuse()
	var reads, targets int
	if _, err := fmt.Sscanf(tab.Notes[1], "total remote reads by rank 0: %d over %d distinct targets", &reads, &targets); err != nil || targets == 0 {
		t.Fatalf("note %q: %d targets, %v", tab.Notes[1], targets, err)
	}
	var tail float64
	for _, r := range tab.Rows {
		if r[0] == "65-256" || r[0] == ">256" {
			tail += cell(t, r[1])
		}
	}
	mean := float64(reads) / float64(targets)
	t.Logf("fig 1: %d remote reads over %d targets (%.1f each), %.0f targets read more than 64 times", reads, targets, mean, tail)
	if mean < 8 {
		t.Errorf("%.1f reads per target, want at least 8", mean)
	}
	if tail == 0 {
		t.Error("no target is read more than 64 times")
	}
}

// TestFig5Shape holds Observation 3.1 on Fig. 5's table: the mean accesses
// per degree decile never fall, the top decile's is at least twice the
// bottom's, and degree and accesses correlate at 0.8 or more. At the table's
// introduction the means rose from 10.6 to 32.8 and the correlation was 0.913.
func TestFig5Shape(t *testing.T) {
	tab := Fig5CacheEntries()
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 deciles", len(tab.Rows))
	}
	acc := make([]float64, len(tab.Rows))
	for i, r := range tab.Rows {
		acc[i] = cell(t, r[2])
		if i > 0 && acc[i] < acc[i-1] {
			t.Errorf("decile %d's mean accesses %.1f fall below decile %d's %.1f", i+1, acc[i], i, acc[i-1])
		}
	}
	_, corr, _ := strings.Cut(tab.Notes[len(tab.Notes)-1], "= ")
	r := cell(t, corr)
	t.Logf("fig 5: mean accesses per degree decile %.1f .. %.1f, correlation(degree, accesses) %.3f", acc[0], acc[len(acc)-1], r)
	if acc[len(acc)-1] < 2*acc[0] {
		t.Errorf("top decile's %.1f accesses are not at least 2 × the bottom's %.1f", acc[len(acc)-1], acc[0])
	}
	if r < 0.8 {
		t.Errorf("correlation(degree, accesses) %.3f, want at least 0.8", r)
	}
}

// TestAblationPushPullShape holds A10's rows (pushPullRuns; the 16-rank
// rows under -short) to the directions measured when push lost its
// unbatched path: push fetches exactly half of pull's lists, since each
// cut edge is walked from one end only, and finishes in under 0.6 × the
// uncached pull's simulated time; pull+cache beats push on R-MAT, where
// hubs are reused, and push beats pull+cache on the uniform graph at 16
// ranks, where there is little to reuse.
func TestAblationPushPullShape(t *testing.T) {
	ranks := pushPullRanks
	if testing.Short() {
		ranks = []int{16}
	}
	for _, name := range pushPullGraphs {
		g := gen.MustLoad(name)
		for _, p := range ranks {
			pull, cached, push := pushPullRuns(g, p)
			pullGets, pushGets := pull.AggregateRMA().Gets, push.AggregateRMA().Gets
			t.Logf("push-pull %s p=%d: pull %.1f ms, pull+cache %.1f ms, push %.1f ms (%.3f of pull); gets push %d, pull %d",
				name, p, pull.SimTime/1e6, cached.SimTime/1e6, push.SimTime/1e6, push.SimTime/pull.SimTime, pushGets, pullGets)
			if 2*pushGets != pullGets {
				t.Errorf("%s p=%d: push's %d gets are not half of pull's %d", name, p, pushGets, pullGets)
			}
			if push.SimTime >= 0.6*pull.SimTime {
				t.Errorf("%s p=%d: push's %.1f ms is not under 0.6 × pull's %.1f ms", name, p, push.SimTime/1e6, pull.SimTime/1e6)
			}
			rmat := name == "rmat-s14-ef16"
			if rmat && cached.SimTime >= push.SimTime {
				t.Errorf("%s p=%d: pull+cache's %.1f ms does not beat push's %.1f ms", name, p, cached.SimTime/1e6, push.SimTime/1e6)
			}
			if !rmat && p == 16 && push.SimTime >= cached.SimTime {
				t.Errorf("%s p=%d: push's %.1f ms does not beat pull+cache's %.1f ms", name, p, push.SimTime/1e6, cached.SimTime/1e6)
			}
		}
	}
}

// TestAblationCutoffShape holds A1's claim: the sequential cutoff must be
// chosen, with an optimum neither at cutoff 0 nor at "never parallelize",
// and the sequential row at most 0.8 × the best row's rate.
func TestAblationCutoffShape(t *testing.T) {
	tab := AblationCutoff()
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	best := 0
	for i := range tab.Rows {
		if cell(t, tab.Rows[i][1]) > cell(t, tab.Rows[best][1]) {
			best = i
		}
	}
	if best == 0 || best == len(tab.Rows)-1 {
		t.Errorf("cutoff optimum at boundary row %d; expected interior", best)
	}
	if seq, top := cell(t, tab.Rows[len(tab.Rows)-1][1]), cell(t, tab.Rows[best][1]); seq > 0.8*top {
		t.Errorf("sequential %.2f edges/µs is above 0.8 × the best %.2f", seq, top)
	}
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("8-rank trace of four datasets")
	}
	tab := Fig4DataReuse()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	share := map[string]float64{}
	for _, r := range tab.Rows {
		share[r[0]] = cell(t, r[2])
	}
	// The paper's ordinal expectation: uniform lowest, R-MAT highest,
	// the social-network stand-ins in between.
	if !(share["uniform"] < share["orkut-sim"] &&
		share["uniform"] < share["lj-sim"] &&
		share["orkut-sim"] < share["rmat-s15-ef16"] &&
		share["lj-sim"] < share["rmat-s15-ef16"]) {
		t.Errorf("top-10%% shares out of order: %v", share)
	}
	// And the extremes should be in the right ballpark (paper: 11.7% for
	// uniform with its graph; ours must at least stay under 1/3 and the
	// R-MAT concentration above 2/3).
	if share["uniform"] > 33 {
		t.Errorf("uniform share %.1f%% too concentrated", share["uniform"])
	}
	if share["rmat-s15-ef16"] < 66 {
		t.Errorf("R-MAT share %.1f%% too flat", share["rmat-s15-ef16"])
	}
}

func TestFig6Shape(t *testing.T) {
	tab := Fig6SharedScaling()
	if len(tab.Rows) == 0 {
		t.Fatal("fig6 empty")
	}
	// Performance must rise with the thread count within each dataset,
	// sublinearly: the paper's Fig. 6 annotations are 2.0x, 2.7x and 1.2x
	// (Orkut) at 16 threads — gains exist but the OpenMP region-entry
	// bottleneck caps them well below linear.
	type series struct{ speedup, threadsLast float64 }
	byDataset := map[string]*series{}
	for _, r := range tab.Rows {
		name := r[0]
		threads := cell(t, r[2])
		sp := cell(t, r[4])
		s, ok := byDataset[name]
		if !ok {
			byDataset[name] = &series{speedup: sp, threadsLast: threads}
			continue
		}
		if threads > s.threadsLast {
			s.speedup, s.threadsLast = sp, threads
		}
	}
	for name, s := range byDataset {
		if s.speedup <= 1.05 {
			t.Errorf("%s: 16-thread speedup %.2fx, want > 1.05x", name, s.speedup)
		}
		if s.speedup >= 8 {
			t.Errorf("%s: speedup %.2fx implausibly near-linear; the region-entry bottleneck should cap it", name, s.speedup)
		}
	}
}

func TestAblationOverlapShape(t *testing.T) {
	if testing.Short() {
		t.Skip("six full engine runs")
	}
	tab := AblationOverlap()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		on, off := cell(t, r[1]), cell(t, r[2])
		if on > off {
			t.Errorf("ranks %s: overlap on (%.1f ms) slower than off (%.1f ms)", r[0], on, off)
		}
		// §IV-D-2: gains are modest because communication dominates —
		// overlap must not look like a 2x win.
		if gain := (off - on) / off; gain > 0.5 {
			t.Errorf("ranks %s: overlap gain %.0f%% implausibly large", r[0], 100*gain)
		}
	}
}

func TestAblationCyclicShape(t *testing.T) {
	tab := AblationCyclic()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	byScheme := map[string][]string{}
	for _, r := range tab.Rows {
		byScheme[r[0]] = r
	}
	blockImb := cell(t, byScheme["block"][2])
	cyclicImb := cell(t, byScheme["cyclic"][2])
	arcsImb := cell(t, byScheme["block-arcs"][2])
	if cyclicImb >= blockImb || arcsImb >= blockImb {
		t.Errorf("imbalance: block %.2f should exceed cyclic %.2f and block-arcs %.2f on a degree-ordered graph",
			blockImb, cyclicImb, arcsImb)
	}
	blockT := cell(t, byScheme["block"][1])
	cyclicT := cell(t, byScheme["cyclic"][1])
	if cyclicT >= blockT {
		t.Errorf("cyclic (%.1f ms) not faster than block (%.1f ms) despite balancing", cyclicT, blockT)
	}
}

func TestAblationOrientationShape(t *testing.T) {
	tab := AblationOrientation()
	if len(tab.Rows) == 0 {
		t.Fatal("orientation table empty")
	}
	// Forward (either order) must do fewer merge operations per arc than
	// the edge-centric method on every dataset — that is the §V point of
	// orienting the graph.
	for _, r := range tab.Rows {
		edgeOps := cell(t, r[1])
		degOps := cell(t, r[2])
		degenOps := cell(t, r[3])
		if degOps >= edgeOps || degenOps >= edgeOps {
			t.Errorf("%s: forward ops/arc (deg %.2f, degen %.2f) not below edge-centric %.2f",
				r[0], degOps, degenOps, edgeOps)
		}
	}
}

func TestAblation2DShape(t *testing.T) {
	tab := Ablation2D()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The 2D engine trades per-edge latency-bound gets for 2(√p−1) bulk
	// block pulls: its get count must be far below 1D's at every p.
	for _, r := range tab.Rows {
		gets1D := cell(t, r[5])
		gets2D := cell(t, r[6])
		if gets2D*10 > gets1D {
			t.Errorf("p=%s: 2D gets %v not an order of magnitude below 1D %v", r[0], gets2D, gets1D)
		}
	}
}

func TestAblationNoiseShape(t *testing.T) {
	tab := AblationNoise()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The BSP penalty (TriC's slowdown over the async engine's under the
	// same noise) must be ≥ ~1 at every level and grow with the noise.
	first := cell(t, tab.Rows[1][5])
	last := cell(t, tab.Rows[2][5])
	if first < 0.95 {
		t.Errorf("low-noise BSP penalty %.2f < 1: barriers should amplify noise", first)
	}
	if last < first {
		t.Errorf("BSP penalty fell from %.2f to %.2f as noise grew", first, last)
	}
}

func TestAblationDistTCShape(t *testing.T) {
	if testing.Short() {
		t.Skip("four-way engine sweep")
	}
	tab := AblationDistTC()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// §I: DistTC's precompute share grows with the rank count, and the
	// shadow replication factor grows with it.
	firstPre := cell(t, tab.Rows[0][4])
	lastPre := cell(t, tab.Rows[len(tab.Rows)-1][4])
	if lastPre <= firstPre {
		t.Errorf("precompute share did not grow with ranks: %.0f%% -> %.0f%%", firstPre, lastPre)
	}
	firstRep := cell(t, tab.Rows[0][5])
	lastRep := cell(t, tab.Rows[len(tab.Rows)-1][5])
	if lastRep <= firstRep {
		t.Errorf("replication factor did not grow with ranks: %.2fx -> %.2fx", firstRep, lastRep)
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every registered dataset")
	}
	tab := Table2Datasets()
	if len(tab.Rows) < 10 {
		t.Fatalf("rows = %d, want the full dataset registry", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if cell(t, r[3]) <= 0 || cell(t, r[4]) <= 0 {
			t.Errorf("dataset %s reports empty graph: %v", r[0], r)
		}
	}
}

// TestAllExperimentsHaveDistinctIDs guards the registry against copy-paste
// drift as new ablations are added.
func TestAllExperimentsHaveDistinctIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Make == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if _, ok := Lookup(e.ID); !ok {
			t.Errorf("Lookup(%q) failed", e.ID)
		}
	}
	if _, ok := Lookup("no-such-experiment"); ok {
		t.Error("Lookup accepted an unknown id")
	}
	if !strings.Contains(strings.Join(idList(), ","), "fig9") {
		t.Error("fig9 missing from registry")
	}
}

func idList() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}

func TestAblationRelabelShape(t *testing.T) {
	if testing.Short() {
		t.Skip("two 16-rank engine runs")
	}
	tab := AblationRelabel()
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	ordT, relT := cell(t, tab.Rows[0][1]), cell(t, tab.Rows[1][1])
	if relT >= ordT {
		t.Errorf("relabeled run (%.1f ms) not faster than degree-ordered (%.1f ms)", relT, ordT)
	}
	ordI, relI := cell(t, tab.Rows[0][2]), cell(t, tab.Rows[1][2])
	if relI >= ordI {
		t.Errorf("relabeled imbalance %.2f not below degree-ordered %.2f", relI, ordI)
	}
	if tab.Rows[0][4] != tab.Rows[1][4] {
		t.Error("relabeling changed the triangle count")
	}
}
