package experiments

import (
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
// shrinks. The expensive sweeps (fig7, fig9, fig10, A10, A11) are left to
// cmd/figures; table3's wall-clock rates are too, and TestTable3Shape holds
// its claim in modelled intersection iterations instead. TestFig8Shape runs
// fig8's configurations without its table.

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

func TestAblationReplicationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("five 16-rank engine runs")
	}
	tab := AblationReplication()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Remote fraction must fall monotonically with c; time must not rise;
	// memory must grow roughly linearly in c.
	prevFrac, prevTime := 101.0, 1e18
	for _, r := range tab.Rows {
		frac := cell(t, r[4])
		tm := cell(t, r[2])
		if frac >= prevFrac {
			t.Errorf("c=%s: remote fraction %.0f%% did not fall (prev %.0f%%)", r[0], frac, prevFrac)
		}
		if tm > prevTime*1.05 {
			t.Errorf("c=%s: time %.1f ms rose (prev %.1f ms)", r[0], tm, prevTime)
		}
		prevFrac, prevTime = frac, tm
	}
	memCost := cell(t, tab.Rows[3][6])
	if memCost < 4 {
		t.Errorf("c=8 memory cost %.1fx implausibly low", memCost)
	}
}
