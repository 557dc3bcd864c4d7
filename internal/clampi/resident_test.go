package clampi

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/rma"
)

// lawWorld is a world of len(regions) ranks whose read-only window exposes
// regions[t] bytes at rank t, with rank 0's handle.
func lawWorld(regions []int) (*rma.Rank, *rma.Window) {
	c := rma.NewComm(len(regions), rma.DefaultCostModel())
	rs := make([][]byte, len(regions))
	for t, n := range regions {
		rs[t] = make([]byte, n)
	}
	w := c.CreateReadOnlyWindow("law", rs)
	r := c.Rank(0)
	r.LockAll(w)
	return r, w
}

// bruteFits is the residency law written out from its statement, with the
// bucket hash of the byte-loop reference (refFNV): every size in
// (0, capacity] and inside the geometry, and B — the sizes, plus
// (accesses − 1)·size over the keys of buckets that receive more than Assoc
// of them — at most the capacity. It also returns which keys are crowded
// (in an over-full bucket).
func bruteFits(cfg Config, regions []int, keys []Coord, accesses []int) (bool, []bool) {
	cfg = cfg.withDefaults()
	maxRegion := 0
	for _, n := range regions {
		maxRegion = max(maxRegion, n)
	}
	tb, ob := bits.Len(uint(len(regions)-1)), max(bits.Len(uint(maxRegion)), 1)
	inside := func(x, width int) bool { return x >= 0 && x < 1<<width }
	buckets, assoc := uint64(max(cfg.Buckets, 1)), max(cfg.Assoc, 1)
	perBucket := map[uint64]int{}
	for _, k := range keys {
		if k.Size <= 0 || k.Size > cfg.Capacity || !inside(k.Target, tb) || !inside(k.Offset, ob) || !inside(k.Size, ob) {
			return false, nil
		}
		perBucket[refFNV(k.Target, k.Offset, k.Size)%buckets]++
	}
	b := 0
	crowded := make([]bool, len(keys))
	for i, k := range keys {
		b += k.Size
		if crowded[i] = perBucket[refFNV(k.Target, k.Offset, k.Size)%buckets] > assoc; crowded[i] {
			b += max(accesses[i]-1, 0) * k.Size
		}
	}
	return b <= cfg.Capacity, crowded
}

// each yields keys in order, as Resident.Fits takes them.
func each(keys []Coord) func(yield func(Coord) bool) {
	return func(yield func(Coord) bool) {
		for _, k := range keys {
			if !yield(k) {
				return
			}
		}
	}
}

// lawAccess is one access of a law check's sequence: an index into its keys
// and the access's score.
type lawAccess struct {
	key   int
	score float64
}

// sameStats compares two tallies, the fragmentation ratio by its bits.
func sameStats(a, b Stats) bool {
	fa, fb := math.Float64bits(a.FragmentationRatio), math.Float64bits(b.FragmentationRatio)
	a.FragmentationRatio, b.FragmentationRatio = 0, 0
	return a == b && fa == fb
}

// checkLaw holds Resident's answer for keys, accessed as seq accesses them,
// to bruteFits and, when they fit, its decisions to a real Cache's: every
// verdict, the conflict evictions in order (onEvict), and the final Stats.
// It returns whether the law admitted the keys, the Resident and the
// evictions.
func checkLaw(t *testing.T, name string, cfg Config, regions []int, keys []Coord, seq []lawAccess) (bool, *Resident, []eviction) {
	t.Helper()
	r, w := lawWorld(regions)
	law := new(Resident).Reset(cfg, w, len(regions))
	accesses := make([]int, len(keys))
	for _, a := range seq {
		accesses[a.key]++
	}
	var census []int
	fits, _ := law.Fits(each(keys), func(crowded []int) []int {
		census = slices.Clone(crowded)
		acc := make([]int, len(crowded))
		for i, k := range crowded {
			acc[i] = accesses[k]
		}
		return acc
	}, nil)
	want, crowded := bruteFits(cfg, regions, keys, accesses)
	if fits != want {
		t.Fatalf("%s: Fits %v, brute force %v (cfg %+v, regions %v, keys %v, accesses %v)", name, fits, want, cfg, regions, keys, accesses)
	}
	if !fits {
		return false, law, nil
	}
	var wantCensus []int
	for i, c := range crowded {
		if c {
			wantCensus = append(wantCensus, i)
		}
	}
	if !slices.Equal(census, wantCensus) {
		t.Fatalf("%s: over-full buckets' keys %v, brute force %v", name, census, wantCensus)
	}
	c := New(r, w, cfg)
	var cEv, lEv []eviction
	c.onEvict = func(conflict bool, key, tick uint64) { cEv = append(cEv, eviction{conflict, key, tick}) }
	law.onEvict = func(conflict bool, key, tick uint64) { lEv = append(lEv, eviction{conflict, key, tick}) }
	seen := make([]bool, len(keys))
	for i, a := range seq {
		k := keys[a.key]
		first := !seen[a.key]
		seen[a.key] = true
		want := c.Decide(c.KeyOf(k.Target, k.Offset, k.Size), a.score, first)
		if got := law.Decide(k.Target, k.Offset, k.Size, a.score, first, crowded[a.key]); got != want {
			t.Fatalf("%s: access %d of %v: Resident verdict %d, Cache %d", name, i, k, got, want)
		}
	}
	if !slices.Equal(lEv, cEv) {
		t.Fatalf("%s: Resident evictions %v, Cache %v", name, lEv, cEv)
	}
	if got, want := law.Stats(), c.Stats(); !sameStats(got, want) {
		t.Fatalf("%s: Resident statistics\n %+v\nCache\n %+v", name, got, want)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return true, law, cEv
}

// sameBucket returns n distinct coordinates of size bytes at target 1 whose
// keys share one bucket of cfg's table.
func sameBucket(cfg Config, regions []int, size, n int) []Coord {
	_, w := lawWorld(regions)
	law := new(Resident).Reset(cfg, w, len(regions))
	var keys []Coord
	want := uint64(math.MaxUint64)
	for off := 0; len(keys) < n; off += size {
		b := law.magic.mod(law.coder.hash(1, off, size))
		if want == math.MaxUint64 {
			want = b
		}
		if b == want {
			keys = append(keys, Coord{1, off, size})
		}
	}
	return keys
}

// TestResidentLaw holds the law at its boundaries — a capacity filled to the
// byte and one byte past it, by distinct sizes and by an over-full bucket's
// re-inserts, Assoc keys in a bucket and more, a size-0 key, a key larger
// than the buffer, coordinates outside the geometry — to the brute-force
// check, and every set that fits to a real Cache's decisions.
func TestResidentLaw(t *testing.T) {
	regions := []int{0, 4096, 1000}
	cfg := Config{Capacity: 96, Buckets: 7, Assoc: 2}
	// Three accesses a key, cycling with NaN, positive and negative scores.
	seq := func(n int) []lawAccess {
		var s []lawAccess
		for i := range 3 * n {
			s = append(s, lawAccess{i % n, [...]float64{math.NaN(), 3, -1}[i*7%3]})
		}
		return s
	}
	pair := sameBucket(cfg, regions, 8, 3)
	oneBucket := Config{Capacity: 1 << 10, Buckets: 1, Assoc: 4}
	for _, tc := range []struct {
		name string
		cfg  Config
		keys []Coord
		want bool
	}{
		{"empty", cfg, nil, true},
		{"capacity to the byte", cfg, []Coord{{1, 0, 40}, {2, 40, 40}, {1, 800, 16}}, true},
		{"one byte past it", cfg, []Coord{{1, 0, 40}, {2, 40, 40}, {1, 800, 17}}, false},
		{"assoc in a bucket", cfg, pair[:2], true},
		{"assoc+1 in a bucket", cfg, pair, true},
		// Three 8-byte keys, three accesses each: B = 24 + 3·2·8 = 72.
		{"re-inserts to the byte", Config{Capacity: 72, Buckets: 7, Assoc: 2}, pair, true},
		{"re-inserts one byte past it", Config{Capacity: 71, Buckets: 7, Assoc: 2}, pair, false},
		{"assoc+1, one bucket", oneBucket, []Coord{{1, 0, 8}, {1, 8, 8}, {2, 0, 8}, {2, 8, 8}, {1, 16, 8}}, true},
		{"assoc, one bucket", oneBucket, []Coord{{1, 0, 8}, {1, 8, 8}, {2, 0, 8}, {2, 8, 8}}, true},
		{"size 0", cfg, []Coord{{1, 0, 8}, {1, 8, 0}}, false},
		{"larger than the buffer", cfg, []Coord{{1, 0, 97}}, false},
		{"no such rank", cfg, []Coord{{4, 0, 8}}, false},
		{"negative offset", cfg, []Coord{{1, -8, 8}}, false},
		{"offset past the geometry", cfg, []Coord{{1, 1 << 13, 8}}, false},
		{"default geometry", Config{Capacity: 64}, []Coord{{1, 0, 32}, {2, 0, 32}}, true},
	} {
		if got, _, _ := checkLaw(t, tc.name, tc.cfg, regions, tc.keys, seq(max(len(tc.keys), 1))[:3*len(tc.keys)]); got != tc.want {
			t.Errorf("%s: fits %v, want %v", tc.name, got, tc.want)
		}
	}
	_, w := lawWorld(regions)
	law := new(Resident).Reset(cfg, w, len(regions))
	for _, at := range [][3]int{{4, 0, 8}, {1, -8, 8}, {1, 0, 1 << 40}} {
		mustPanicWith(t, outsideMsg(at), func() { law.Decide(at[0], at[1], at[2], math.NaN(), true, false) })
	}
	if law.Stats() != (Stats{}) {
		t.Errorf("a refused coordinate changed the tally: %+v", law.Stats())
	}
}

// decodeLaw turns fuzz bytes into a geometry (two to five ranks' regions,
// any bucket count up to 13, Assoc 1, 2 or 4), a capacity, a key set of
// sizes 0 to 255 and an access sequence with repeats and NaN, degree and
// arbitrary scores.
func decodeLaw(data []byte) (Config, []int, []Coord, []lawAccess) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	regions := make([]int, 2+next()%4)
	for t := range regions {
		regions[t] = 16 * next()
	}
	cfg := Config{Buckets: 1 + next()%13, Assoc: [...]int{1, 2, 4}[next()%3], Capacity: 8*next() + 8}
	var keys []Coord
	seen := map[Coord]bool{}
	for n := next() % 24; len(keys) < n && len(data) > 0; {
		k := Coord{next() % (len(regions) + 1), 8*next() - 8, next()}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	var seq []lawAccess
	for len(keys) > 0 && len(data) > 0 {
		a := lawAccess{key: next() % len(keys)}
		switch s := next(); s % 3 {
		case 0:
			a.score = math.NaN()
		case 1:
			a.score = float64(keys[a.key].Size / 4) // the degree score
		default:
			a.score = float64(s) - 100
		}
		seq = append(seq, a)
	}
	return cfg, regions, keys, seq
}

// The law's named fuzz seeds, in decodeLaw's encoding: two ranks (rank 1
// exposes 64 bytes), one bucket, then the keys (target 1, offset 8·(b−1),
// size) and the accesses (key, score byte: 0 NaN, 3k+2 → 3k−98).
var (
	// Assoc 2, 64 bytes: three 8-byte keys in turn, unscored, twice. The
	// third insert evicts the second key, the top entry, whose credit
	// for the free tail outweighs the first's older tick.
	seedTailCredit = []byte{0, 0, 4, 0, 1, 7, 3, 1, 1, 8, 1, 2, 8, 1, 3, 8, 0, 0, 1, 0, 2, 0, 0, 0, 1, 0, 2, 0}
	// Assoc 2, 32 bytes: keys of 8, 8 and 4 bytes scored −98, 1 and −95.
	// The third evicts the first, leaving a hole at [0, 8) below the
	// second, and best fit places it there rather than in the larger tail.
	seedHoleFit = []byte{0, 0, 4, 0, 1, 3, 3, 1, 1, 8, 1, 2, 8, 1, 3, 4, 0, 2, 1, 101, 2, 5}
	// Assoc 1, 32 bytes: two 11-byte keys, the first accessed twice, so
	// B = 22 + 11 = 33, one byte past the capacity.
	seedOneByteOver = []byte{0, 0, 4, 0, 0, 3, 2, 1, 1, 11, 1, 3, 11, 0, 0, 1, 0, 0, 0}
)

// TestResidentLawSeeds holds each named seed of FuzzResidentLaw to the case
// it is named for.
func TestResidentLawSeeds(t *testing.T) {
	cfg, regions, keys, seq := decodeLaw(seedTailCredit)
	fits, law, ev := checkLaw(t, "tail credit", cfg, regions, keys, seq)
	if k := law.coder.pack(1, 8, 8); !fits || len(ev) == 0 || ev[0].key != k {
		t.Errorf("tail credit: fits %v, evictions %v, want the top entry %#x first", fits, ev, k)
	}
	cfg, regions, keys, seq = decodeLaw(seedHoleFit)
	fits, law, ev = checkLaw(t, "hole fit", cfg, regions, keys, seq)
	if !fits || len(ev) != 1 || !slices.Equal(law.holes, []extent{{4, 4}}) || law.top != 16 {
		t.Errorf("hole fit: fits %v, evictions %v, holes %v, tail from %d; want a 4-byte entry at the bottom of an 8-byte hole", fits, ev, law.holes, law.top)
	}
	cfg, regions, keys, seq = decodeLaw(seedOneByteOver)
	if fits, _, _ := checkLaw(t, "one byte over", cfg, regions, keys, seq); fits {
		t.Errorf("one byte over: fits")
	}
}

// FuzzResidentLaw holds the law to the brute-force check and, where it
// admits a key set, Resident's decisions to a real Cache's, on decodeLaw's
// geometries and sequences.
func FuzzResidentLaw(f *testing.F) {
	f.Add([]byte{2, 6, 1, 3, 0, 200, 1, 0, 4, 8, 1, 16, 16, 2, 1, 4, 0, 1, 2, 3, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 8, 1, 8, 8, 1, 0, 8})
	f.Add([]byte{3, 12, 2, 40, 7, 255, 9, 1, 0, 60, 2, 4, 4, 3, 100, 255, 0, 9, 9, 9, 1, 2})
	f.Add(seedTailCredit)
	f.Add(seedHoleFit)
	f.Add(seedOneByteOver)
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, regions, keys, seq := decodeLaw(data)
		checkLaw(t, "fuzz", cfg, regions, keys, seq)
	})
}
