// Charge-tape pins: the contract of DESIGN.md §6 is that a rank's charges
// form one canonical per-rank sequence that alone determines every
// simulated result. These tests record that sequence with a ChargeObserver
// for every golden engine configuration and hold its digest — kind, byte
// count, raw duration and the folded clock's float bits of every charge, and
// their number — to a recorded value, so any host-side reordering that leaks
// into the model — a hoisted issue, a dropped charge — fails here by rank
// even where SimTime, a max over ranks, would hide it.
package repro_test

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/lcc"
	"repro/internal/rma"
)

// tapeDigest is one rank's observed charge sequence: the number of charges
// and an FNV-1a style hash over each one's fields, in order.
type tapeDigest struct {
	ops int
	sum uint64
}

// chargeLog collects per-rank charge digests. Rank r's goroutine is the
// only writer of rank[r], so no locking is needed; last is the clock after
// the rank's last charge.
type chargeLog struct {
	rank []tapeDigest
	last []float64
}

func newChargeLog(ranks int) *chargeLog {
	l := &chargeLog{rank: make([]tapeDigest, ranks), last: make([]float64, ranks)}
	for r := range l.rank {
		l.rank[r].sum = 14695981039346656037
	}
	return l
}

func (l *chargeLog) observer() rma.ChargeObserver {
	return func(rank int, kind rma.ChargeKind, bytes int, ns, now float64) {
		d := &l.rank[rank]
		for _, x := range [...]uint64{uint64(kind), uint64(bytes), math.Float64bits(ns), math.Float64bits(now)} {
			d.sum = (d.sum ^ x) * 1099511628211
		}
		d.ops++
		l.last[rank] = now
	}
}

// tapeConfigs mirrors the golden configurations (golden_test.go) with the
// observer threaded through: run executes the engine and returns the run's
// SimTime; want is the digest of each of the four ranks.
var tapeConfigs = []struct {
	name string
	want [4]tapeDigest
	run  func(t *testing.T, g *graph.Graph, obs rma.ChargeObserver) float64
}{
	{"pull", [4]tapeDigest{{114966, 0xf87435ae1ed57a0f}, {112913, 0xd17021e0b66e92f7}, {113417, 0x916be42423ee173d}, {114353, 0xf24ca88b4d6f3184}},
		func(t *testing.T, g *graph.Graph, obs rma.ChargeObserver) float64 {
			opt := goldenBase()
			opt.ChargeObserver = obs
			res, err := lcc.Run(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			return res.SimTime
		}},
	{"cached", [4]tapeDigest{{208850, 0xb4501363ed14a217}, {206691, 0x1d0c84c3d49905e1}, {207817, 0xd65fa7ecde77de0}, {209217, 0x466d8d46d6757c28}},
		func(t *testing.T, g *graph.Graph, obs rma.ChargeObserver) float64 {
			opt := goldenBase()
			opt.Caching = true
			opt.OffsetsCacheBytes = 1 << 14
			opt.AdjCacheBytes = 1 << 16
			opt.AdjScorePolicy = lcc.ScoreDegree
			opt.ChargeObserver = obs
			res, err := lcc.Run(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			return res.SimTime
		}},
	{"push", [4]tapeDigest{{223444, 0xf11e173a07fd4063}, {228122, 0xd4c70d4560f85a7a}, {241067, 0xa7c7e9508f2634f5}, {239880, 0xe8eea3d41bdef2a6}},
		func(t *testing.T, g *graph.Graph, obs rma.ChargeObserver) float64 {
			opt := goldenBase()
			opt.ChargeObserver = obs
			res, err := lcc.RunPush(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			return res.SimTime
		}},
	{"jaccard", [4]tapeDigest{{113981, 0xb882e4e8f69d0c5b}, {111928, 0xda1e5fa2e7f9d169}, {112432, 0xffd1ab7f5ef6b307}, {113367, 0x703f25ddd19778f7}},
		func(t *testing.T, g *graph.Graph, obs rma.ChargeObserver) float64 {
			opt := goldenBase()
			opt.ChargeObserver = obs
			res, err := lcc.RunJaccard(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			return res.SimTime
		}},
	{"grid", [4]tapeDigest{{3944, 0x799f2d26dfb30f96}, {3944, 0x4952c188dc261429}, {3946, 0x3923dce55148d88d}, {3946, 0x3ea58070ada8eaa9}},
		func(t *testing.T, g *graph.Graph, obs rma.ChargeObserver) float64 {
			res, err := grid.Run(g, grid.Options{Ranks: 4, ChargeObserver: obs})
			if err != nil {
				t.Fatal(err)
			}
			return res.SimTime
		}},
}

// TestChargeTapeDigests runs every golden configuration under an observer
// and compares each rank's charge digest with the recorded one. The values
// were recorded on the tree that still had the deferred fold schedule, under
// both schedules, which its op-for-op diff proved equal.
func TestChargeTapeDigests(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	for _, cfg := range tapeConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			log := newChargeLog(len(cfg.want))
			cfg.run(t, g, log.observer())
			for r, got := range log.rank {
				if got != cfg.want[r] {
					t.Errorf("rank %d: %d charges, digest %#x; want %d, %#x", r, got.ops, got.sum, cfg.want[r].ops, cfg.want[r].sum)
				}
			}
		})
	}
}

// TestChargeTapeObserverMatchesGolden anchors the observed sequences to
// the pinned results: an observed run must still reproduce the golden
// SimTime bits (observation must not perturb the model).
func TestChargeTapeObserverMatchesGolden(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	log := newChargeLog(4)
	sim := tapeConfigs[0].run(t, g, log.observer())
	const wantBits = 0x419e343dbb9986d8 // golden "pull" SimTime pin
	if got := math.Float64bits(sim); got != wantBits {
		t.Errorf("observed run SimTime bits = %#x, want %#x", got, wantBits)
	}
	// Sanity: the sequence is non-trivial and its last fold lands no later
	// than the slowest rank's finish time.
	for r, d := range log.rank {
		if d.ops == 0 {
			t.Fatalf("rank %d recorded no charges", r)
		}
		if log.last[r] > sim {
			t.Errorf("rank %d: last observed fold (%v) exceeds SimTime (%v)", r, log.last[r], sim)
		}
	}
}
