package clampi

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/rma"
)

// oneSizeWorld is a three-rank world whose ranks 1 and 2 expose n offset
// records each, and rank 0's handle.
func oneSizeWorld(n int) (*rma.Rank, *rma.Window) {
	comm := rma.NewComm(3, rma.DefaultCostModel())
	w := comm.CreateOffsetsWindow("off", [][]uint64{nil, make([]uint64, n+1), make([]uint64, n+1)})
	r := comm.Rank(0)
	r.LockAll(w)
	return r, w
}

// oneSizeStep is one access of a differential run: pair at of target 1 or
// 2.
type oneSizeStep struct {
	target, at int
}

// eviction is one onEvict observation.
type eviction struct {
	conflict  bool
	key, tick uint64
}

// matchCLaMPI runs steps through a OneSize — m Reset to cfg, or a new one
// when m is nil — and a new Cache under cfg, telling both which accesses
// are their coordinate's first, and requires after every step the same
// verdict, the same evictions and the same Stats. It returns the Cache's
// final Stats.
func matchCLaMPI(t *testing.T, m *OneSize, cfg Config, steps []oneSizeStep) Stats {
	t.Helper()
	r, w := oneSizeWorld(1 << 12)
	c := New(r, w, cfg)
	if m == nil {
		m = NewOneSize(w, 3, cfg)
	} else {
		m.Reset(w, 3, cfg)
	}
	var cEv, mEv []eviction
	c.onEvict = func(conflict bool, key, tick uint64) { cEv = append(cEv, eviction{conflict, key, tick}) }
	m.onEvict = func(conflict bool, key, tick uint64) { mEv = append(mEv, eviction{conflict, key, tick}) }
	seen := map[[2]int]bool{}
	for i, s := range steps {
		at := [2]int{s.target, s.at}
		first := !seen[at]
		seen[at] = true
		cv := c.Decide(c.KeyOf(s.target, 16*s.at, 16), math.NaN(), first)
		if mv := m.Decide(m.KeyOf(s.target, 16*s.at, 16), first); mv != cv {
			t.Fatalf("cfg %+v, step %d %+v: OneSize verdict %d, Cache %d", cfg, i, s, mv, cv)
		}
		if len(mEv) != len(cEv) || len(cEv) > 0 && mEv[len(mEv)-1] != cEv[len(cEv)-1] {
			t.Fatalf("cfg %+v, step %d %+v: OneSize evictions %v, Cache %v", cfg, i, s, tail(mEv), tail(cEv))
		}
		if ms, cs := m.Stats(), c.Stats(); ms != cs {
			t.Fatalf("cfg %+v, step %d %+v: statistics\n OneSize %+v\n Cache   %+v", cfg, i, s, ms, cs)
		}
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	return c.Stats()
}

func tail(ev []eviction) []eviction { return ev[max(len(ev)-1, 0):] }

// decodeOneSize turns fuzz bytes into a configuration and a step stream:
// a capacity in (0, 1100] — under 16, off a multiple of 16 or not —, 1 to 64
// buckets, an associativity of 1, 2 or 4, then one step a
// byte over a key space of 1 to 128 pairs on two targets.
func decodeOneSize(data []byte) (Config, []oneSizeStep) {
	var head [5]byte
	copy(head[:], data)
	cfg := Config{
		Capacity: int(binary.LittleEndian.Uint16(head[0:2]))%1100 + 1,
		Buckets:  1 + int(head[2])%64,
		Assoc:    [...]int{1, 2, 4}[head[3]%3],
	}
	keys := 1 + int(head[4])%128
	var steps []oneSizeStep
	for _, b := range data[min(len(data), len(head)):] {
		k := int(b) % keys
		steps = append(steps, oneSizeStep{target: 1 + k%2, at: k / 2})
	}
	return cfg, steps
}

// FuzzOneSizeMatchesCLaMPI holds the model to a Cache on arbitrary
// geometries and key streams with repeats.
func FuzzOneSizeMatchesCLaMPI(f *testing.F) {
	rng := rand.New(rand.NewPCG(44, 1))
	for range 8 {
		data := make([]byte, 5+rng.IntN(400))
		for i := range data {
			data[i] = byte(rng.IntN(256))
		}
		f.Add(data)
	}
	f.Add([]byte{99, 0, 6, 0, 40, 1, 2, 3, 1, 4, 5, 6, 7, 1, 8, 9, 0xff, 1, 2}) // 100 B over 7 buckets
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, steps := decodeOneSize(data)
		matchCLaMPI(t, nil, cfg, steps)
	})
}

// TestOneSizeMatchesCLaMPI runs the differential check on the offsets
// cache's own geometry (one bucket a pair) and on skewed geometries, over
// long streams that reuse a hot set, so that the top entry's credit is
// reached and, where the buffer is the tighter bound, both eviction kinds. One model is recycled through every geometry (Reset), so
// each but the first runs on what another left behind.
func TestOneSizeMatchesCLaMPI(t *testing.T) {
	_, w := oneSizeWorld(1 << 12)
	used := NewOneSize(w, 3, Config{Capacity: 1 << 12})
	for i, cfg := range []Config{
		{Capacity: 100, Buckets: 6},
		{Capacity: 1000, Buckets: 62},
		{Capacity: 4096, Buckets: 256},
		{Capacity: 520, Buckets: 300, Assoc: 1},
		{Capacity: 1000, Buckets: 7, Assoc: 2},
		{Capacity: 8, Buckets: 4},
	} {
		rng := rand.New(rand.NewPCG(uint64(i), 7))
		steps := make([]oneSizeStep, 40_000)
		for j := range steps {
			k := rng.IntN(1 << 11)
			if rng.IntN(2) == 0 {
				k = rng.IntN(1 << 7)
			}
			steps[j] = oneSizeStep{target: 1 + k%2, at: k / 2}
		}
		s := matchCLaMPI(t, used, cfg, steps)
		if i < 4 && (s.CapacityEvictions == 0 || s.ConflictEvictions == 0) {
			t.Errorf("cfg %+v: %+v; the stream must evict both ways", cfg, s)
		}
	}
}

// TestOneSizeFootprint fills the offsets cache of the benchmark's geometry
// (256 KiB over 16,384 buckets) and churns it: the model holds its table and
// at most 24 bytes a peak entry, 12 and the append's doubling slack.
func TestOneSizeFootprint(t *testing.T) {
	_, w := oneSizeWorld(1 << 16)
	cfg := Config{Capacity: 1 << 18, Buckets: 1 << 14}
	m := NewOneSize(w, 3, cfg)
	rng := rand.New(rand.NewPCG(18, 1))
	peak := 0
	for range 200_000 {
		m.Decide(m.KeyOf(1, 16*rng.IntN(1<<16), 16), false)
		peak = max(peak, m.tab.n)
	}
	if s := m.Stats(); s.CapacityEvictions < int64(peak) {
		t.Fatalf("%d capacity evictions over %d peak entries; the churn never turned the cache over", s.CapacityEvictions, peak)
	}
	table := 64*cfg.Buckets + 4*4*cfg.Buckets
	got, limit := m.MemBytes(), table+24*peak
	t.Logf("%d B for %d peak entries: %.1f B per entry past the table (%d B); limit %d B",
		got, peak, float64(got-table)/float64(peak), table, limit)
	if got > limit {
		t.Errorf("MemBytes %d over the limit %d", got, limit)
	}
}

// TestOneSizeRefusesPosWeight: the model is exact under the default
// positional weight only.
func TestOneSizeRefusesPosWeight(t *testing.T) {
	_, w := oneSizeWorld(16)
	mustPanicWith(t, "clampi: OneSize models the default positional weight 64, not 512", func() {
		NewOneSize(w, 3, Config{Capacity: 64, PosWeight: 512})
	})
	m := NewOneSize(w, 3, Config{Capacity: 64, PosWeight: 64})
	m.busy = true
	mustPanicWith(t, "clampi: Reset of a cache that is mid-operation", func() { m.Reset(w, 3, Config{Capacity: 64}) })
}
