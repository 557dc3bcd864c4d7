package clampi

import (
	"math"
	"math/bits"
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
// bucket hash of the byte-loop reference (refFNV).
func bruteFits(cfg Config, regions []int, keys []Coord) bool {
	cfg = cfg.withDefaults()
	if cfg.Capacity < 0 {
		return false
	}
	maxRegion := 0
	for _, n := range regions {
		maxRegion = max(maxRegion, n)
	}
	tb, ob := bits.Len(uint(len(regions)-1)), max(bits.Len(uint(maxRegion)), 1)
	inside := func(x, width int) bool { return x >= 0 && x < 1<<width }
	buckets, assoc := uint64(max(cfg.Buckets, 1)), max(cfg.Assoc, 1)
	perBucket := map[uint64]int{}
	total := 0
	for _, k := range keys {
		if k.Size <= 0 || k.Size > cfg.Capacity || !inside(k.Target, tb) || !inside(k.Offset, ob) || !inside(k.Size, ob) {
			return false
		}
		total += k.Size
		perBucket[refFNV(k.Target, k.Offset, k.Size)%buckets]++
	}
	if total > cfg.Capacity {
		return false
	}
	for _, n := range perBucket {
		if n > assoc {
			return false
		}
	}
	return true
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

// checkLaw holds Resident's answer for keys to bruteFits and, when they fit,
// a real Cache deciding seq to first-touch verdicts and the tally's Stats.
func checkLaw(t *testing.T, name string, cfg Config, regions []int, keys []Coord, seq []lawAccess) bool {
	t.Helper()
	r, w := lawWorld(regions)
	law := NewResident(cfg, w, len(regions))
	fits, _ := law.Fits(each(keys), nil)
	if want := bruteFits(cfg, regions, keys); fits != want {
		t.Fatalf("%s: Fits %v, brute force %v (cfg %+v, regions %v, keys %v)", name, fits, want, cfg, regions, keys)
	}
	if !fits {
		return false
	}
	c := New(r, w, cfg)
	seen := make([]bool, len(keys))
	for i, a := range seq {
		k := keys[a.key]
		want := Hit
		if !seen[a.key] {
			want, seen[a.key] = Miss, true
		}
		if got := c.Decide(c.KeyOf(k.Target, k.Offset, k.Size), a.score); got != want {
			t.Fatalf("%s: access %d of %v: Cache verdict %d, want first-touch %d", name, i, k, got, want)
		}
		if got := law.Decide(k.Target, k.Offset, k.Size, want == Miss); got != want {
			t.Fatalf("%s: access %d of %v: Resident verdict %d, want %d", name, i, k, got, want)
		}
	}
	if got, want := c.Stats(), law.Stats(); got != want {
		t.Fatalf("%s: Cache statistics\n %+v\nfirst-touch tally\n %+v", name, got, want)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return true
}

// sameBucket returns n distinct coordinates of size bytes at target 1 whose
// keys share one bucket of cfg's table.
func sameBucket(cfg Config, regions []int, size, n int) []Coord {
	_, w := lawWorld(regions)
	law := NewResident(cfg, w, len(regions))
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
// byte and one byte past it, Assoc keys in a bucket and one more, a size-0
// key, a key larger than the buffer, coordinates outside the geometry, a
// negative buffer — to the brute-force check, and every set that fits to
// first-touch decisions of a real Cache.
func TestResidentLaw(t *testing.T) {
	regions := []int{0, 4096, 1000}
	cfg := Config{Capacity: 96, Buckets: 7, Assoc: 2}
	seq := func(n int) []lawAccess {
		var s []lawAccess
		for i := range 3 * n {
			s = append(s, lawAccess{(i * 5) % n, [...]float64{math.NaN(), 3, -1}[i%3]})
		}
		return s
	}
	pair := sameBucket(cfg, regions, 8, 3)
	for _, tc := range []struct {
		name string
		cfg  Config
		keys []Coord
		want bool
	}{
		{"empty", cfg, nil, true},
		{"empty, no buffer", Config{Buckets: 3}, nil, true},
		{"empty, negative buffer", Config{Capacity: -1, Buckets: 3}, nil, false},
		{"capacity to the byte", cfg, []Coord{{1, 0, 40}, {2, 40, 40}, {1, 800, 16}}, true},
		{"one byte past it", cfg, []Coord{{1, 0, 40}, {2, 40, 40}, {1, 800, 17}}, false},
		{"assoc in a bucket", cfg, pair[:2], true},
		{"assoc+1 in a bucket", cfg, pair, false},
		{"assoc+1, one bucket", Config{Capacity: 1 << 10, Buckets: 1, Assoc: 4},
			[]Coord{{1, 0, 8}, {1, 8, 8}, {2, 0, 8}, {2, 8, 8}, {1, 16, 8}}, false},
		{"assoc, one bucket", Config{Capacity: 1 << 10, Buckets: 1, Assoc: 4},
			[]Coord{{1, 0, 8}, {1, 8, 8}, {2, 0, 8}, {2, 8, 8}}, true},
		{"size 0", cfg, []Coord{{1, 0, 8}, {1, 8, 0}}, false},
		{"larger than the buffer", cfg, []Coord{{1, 0, 97}}, false},
		{"no such rank", cfg, []Coord{{4, 0, 8}}, false},
		{"negative offset", cfg, []Coord{{1, -8, 8}}, false},
		{"offset past the geometry", cfg, []Coord{{1, 1 << 13, 8}}, false},
		{"default geometry", Config{Capacity: 64}, []Coord{{1, 0, 32}, {2, 0, 32}}, true},
	} {
		if got := checkLaw(t, tc.name, tc.cfg, regions, tc.keys, seq(max(len(tc.keys), 1))[:3*len(tc.keys)]); got != tc.want {
			t.Errorf("%s: fits %v, want %v", tc.name, got, tc.want)
		}
	}
	_, w := lawWorld(regions)
	law := NewResident(cfg, w, len(regions))
	for _, at := range [][3]int{{4, 0, 8}, {1, -8, 8}, {1, 0, 1 << 40}} {
		mustPanicWith(t, outsideMsg(at), func() { law.Decide(at[0], at[1], at[2], true) })
	}
	if law.Stats() != (Stats{}) {
		t.Errorf("a refused coordinate changed the tally: %+v", law.Stats())
	}
}

// FuzzResidentLaw decodes a geometry (two to five ranks' regions, any bucket
// count up to 13, Assoc 1, 2 or 4), a capacity, a key set and an access
// sequence with repeats and NaN, degree and arbitrary scores, and holds the
// law to the brute-force check and a fitting set to first-touch decisions of
// a real Cache.
func FuzzResidentLaw(f *testing.F) {
	f.Add([]byte{2, 6, 1, 3, 0, 200, 1, 0, 4, 8, 1, 16, 16, 2, 1, 4, 0, 1, 2, 3, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 8, 1, 8, 8, 1, 0, 8})
	f.Add([]byte{3, 12, 2, 40, 7, 255, 9, 1, 0, 60, 2, 4, 4, 3, 100, 255, 0, 9, 9, 9, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
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
		cfg := Config{Buckets: 1 + next()%13, Assoc: [...]int{1, 2, 4}[next()%3], Capacity: 8*next() - 16}
		var keys []Coord
		seen := map[Coord]bool{}
		for n := next() % 24; len(keys) < n && len(data) > 0; {
			k := Coord{next() % (len(regions) + 1), 8*next() - 8, 4 * next()}
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
		checkLaw(t, "fuzz", cfg, regions, keys, seq)
	})
}
