package intersect

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// Tests of the DenseSet kernels (index.go, andCount, rankBinary): a set over
// the fetched list must give the reference loops' (count, ops) under either
// charge, and a set that is foreign or damaged must give them too, by being
// refused or by failing a check.

// denseList returns n ids in about n/perWord bitmap words, ending on last.
func denseList(rng *rand.Rand, n, perWord int, last graph.V) []graph.V {
	list := randSet(rng, n, max(n, 64*n/perWord))
	shift := last - list[n-1]
	for i := range list {
		list[i] += shift
	}
	return list
}

// denseSet is NewDenseSet without a slab, on the heap: nil when it refuses.
func denseSet(list []graph.V) (*DenseSet, bool) {
	d, ok := NewDenseSet(list, nil)
	if !ok {
		return nil, false
	}
	return &d, true
}

// copySet returns a deep copy of d, for a trial to damage.
func copySet(d *DenseSet) *DenseSet {
	c := *d
	c.words, c.rank = slices.Clone(d.words), slices.Clone(d.rank)
	return &c
}

// checkDense holds every way a kernel can be handed set for list b — the AND
// count and ssiOps, the rank query counting and listing, and CountIndexed
// under the three methods, pivot first and second — to the reference loops.
func checkDense(t *testing.T, s *Scratch, a, b []graph.V, set *DenseSet, what string) {
	t.Helper()
	wantCount, wantOps := SSI(a, b)
	if set := set.boundTo(b); set != nil && len(a) >= stampMinLen {
		s.Stamp(a)
		if c, ok := s.andCount(set); ok && c != wantCount {
			t.Fatalf("%s: andCount = %d, SSI counts %d", what, c, wantCount)
		}
		if o := ssiOps(a, b, wantCount, set); o != wantOps {
			t.Fatalf("%s: ssiOps with the set = %d, SSI charges %d", what, o, wantOps)
		}
	}
	if len(a) <= len(b) {
		bc, bo := Binary(a, b)
		want, _ := BinaryElements(a, b, nil)
		if c, o, got := s.binary(nil, a, b, set.boundTo(b), true, nil); c != bc || o != bo || !equalV(got, want) {
			t.Fatalf("%s: listing binary = %v (%d,%d), want %v (%d,%d)", what, got, c, o, want, bc, bo)
		}
	}
	for _, m := range []Method{MethodHybrid, MethodSSI, MethodBinary} {
		wc, wo := Count(m, a, b)
		for call := 0; call < 2; call++ { // the second meets the first's stamp
			if c, o := s.CountIndexed(m, a, b, set); c != wc || o != wo {
				t.Fatalf("%s: CountIndexed(%v) call %d = (%d,%d), want (%d,%d)", what, m, call, c, o, wc, wo)
			}
		}
		wc, wo = Count(m, b, a) // lists of one length keep their order
		if c, o := s.CountIndexed(m, b, a, nil); c != wc || o != wo {
			t.Fatalf("%s: CountIndexed(%v), indexed list as pivot = (%d,%d), want (%d,%d)", what, m, c, o, wc, wo)
		}
	}
}

func TestDenseSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := new(Scratch)
	trials := 1500
	if testing.Short() {
		trials = 150 // the race lane: a trial makes some three hundred kernel calls
	}
	for trial := 0; trial < trials; trial++ {
		n := DenseMinLen + rng.Intn(1200)
		last := graph.V(64*n + rng.Intn(1<<20))
		if trial%7 == 0 {
			last = 1<<32 - 1
		}
		b := denseList(rng, n, 2+rng.Intn(40), last)
		set, ok := denseSet(b)
		if !ok {
			t.Fatalf("trial %d: %d ids in %d words got no dense set", trial, n, int(b[n-1]>>6)-int(b[0]>>6)+1)
		}
		if got := set.MemBytes(); got > 12*n+4 {
			t.Fatalf("trial %d: set of %d bytes over %d ids, want at most 12 per id", trial, got, n)
		}
		// The pivot: short enough for Algorithm 1 or long enough for
		// Algorithm 2 under Eq. (3), around b's id range and beyond it.
		m := 1 + rng.Intn(n/4)
		if trial%2 == 0 {
			m = stampMinLen + rng.Intn(2*n)
		}
		lo := int(b[0]) - rng.Intn(1+min(int(b[0]), 500))
		a := randSet(rng, m, int(b[n-1])-lo+1+rng.Intn(500))
		for i := range a {
			a[i] = graph.V(min(int(a[i])+lo, 1<<32-1))
		}
		a = dedupV(a)
		switch trial % 4 {
		case 1: // hits on both ends of b
			a = append(a, b[0], b[n-1])
			sortV(a)
			a = dedupV(a)
		case 2: // every id above b, or on its last id
			a = a[:min(len(a), 40)]
			for i := range a {
				a[i] = b[n-1] + graph.V(min(i, int(1<<32-1-b[n-1])))
			}
			a = dedupV(a)
		case 3: // every id below b, or on its first id
			a = a[:min(len(a), 40)]
			for i := range a {
				a[i] = b[0] - graph.V(min(len(a)-1-i, int(b[0])))
			}
			a = dedupV(a)
		}
		checkDense(t, s, a, b, set, "own set")
		// An intact set must also pass its checks, or the kernels above
		// were only ever the fallbacks.
		if _, ok := s.andCount(set); !ok {
			t.Fatalf("trial %d: andCount refuses the list's own set", trial)
		}
		if depth := s.depthFor(n, false); depth != nil && len(a) <= n { // nil: the scratch's table cache is full
			if _, _, _, ok := rankBinary(set, depth, a, true, false, nil); !ok {
				t.Fatalf("trial %d: rankBinary refuses the list's own set", trial)
			}
		}

		// A set some other list left behind, differing from b's in one field
		// of the header each: the last id, the first id, the length. The
		// binding must refuse all three; the pivot holds the ids that differ,
		// so that a set believed would show in the count.
		k := 1 + rng.Intn(n-2)
		others := map[string][]graph.V{"one id fewer": slices.Delete(slices.Clone(b), k, k+1)}
		if b[n-1]-1 > b[n-2] {
			others["another last id"] = append(slices.Clone(b[:n-1]), b[n-1]-1)
		}
		if b[0]+1 < b[1] {
			others["another first id"] = append([]graph.V{b[0] + 1}, b[1:]...)
		}
		with := append(slices.Clone(a), b[0], b[0]+1, b[k], b[n-1]-1, b[n-1])
		sortV(with)
		with = dedupV(with)
		for name, other := range others {
			stale, ok := denseSet(other)
			if !ok {
				continue // the change took the list over the density bound
			}
			if stale.boundTo(b) != nil {
				t.Fatalf("trial %d: the set of a list with %s binds", trial, name)
			}
			checkDense(t, s, with, b, stale, "set of a list with "+name)
		}
		// The third binds, and no use can tell: recomputing it is what does
		// (Snapshot.Verify). The kernels must stay in range over it.
		twin := slices.Clone(b)
		if twin[k]+1 < twin[k+1] {
			twin[k]++
			foreign, _ := denseSet(twin)
			if foreign.boundTo(b) == nil || foreign.Equal(set) {
				t.Fatalf("trial %d: the set of a twin list: binds %v, equal %v", trial, foreign.boundTo(b) != nil, foreign.Equal(set))
			}
			for _, m := range []Method{MethodHybrid, MethodSSI, MethodBinary} {
				s.CountIndexed(m, a, b, foreign)
			}
		}

		// Noise behind a matching header. (32-bit noise: a rank entry drawn
		// from [0, n) would pass for its word's popcount once in n reads.)
		noise := copySet(set)
		for i := range noise.words {
			noise.words[i] = rng.Uint64()
		}
		for i := 1; i < len(noise.rank)-1; i++ {
			noise.rank[i] = rng.Uint32()
		}
		noise.sum = rng.Uint64()
		if noise.boundTo(b) == nil {
			t.Fatalf("trial %d: noise behind b's header does not bind", trial)
		}
		checkDense(t, s, a, b, noise, "noise")

		// One flipped bit: in a word, on an id of a where it would change
		// the count; in the rank entry a key's insertion point starts from;
		// in the header.
		x := a[rng.Intn(len(a))]
		w := int(x>>6) - int(b[0]>>6)
		if w < 0 || w >= len(set.words) {
			x = b[rng.Intn(n)]
			w = int(x>>6) - int(b[0]>>6)
		}
		flipped := copySet(set)
		flipped.words[w] ^= 1 << (x & 63)
		checkDense(t, s, a, b, flipped, "flipped word")
		flipped = copySet(set)
		flipped.rank[w+rng.Intn(2)] ^= 1 << uint(rng.Intn(12))
		checkDense(t, s, a, b, flipped, "flipped rank entry")
		flipped = copySet(set)
		flipped.sum ^= 1 << uint(rng.Intn(64))
		checkDense(t, s, a, b, flipped, "flipped sum")
		flipped = copySet(set)
		flipped.last ^= 1 << uint(rng.Intn(32))
		checkDense(t, s, a, b, flipped, "flipped last id")
	}
}

// TestDenseSpanGuard puts lists on both sides of the length floor and the
// density bound: NewDenseSet builds a set for those inside both, and none for
// the rest.
func TestDenseSpanGuard(t *testing.T) {
	for _, c := range []struct {
		name string
		list []graph.V
		set  bool
	}{
		{"below the floor, one word per 64", strideFrom(DenseMinLen-1, 5, 1), false},
		{"at the floor, consecutive ids", strideFrom(DenseMinLen, 5, 1), true},
		{"at the floor, one id per word", strideFrom(DenseMinLen, 0, 64), true},
		{"one word too many", append(strideFrom(DenseMinLen-1, 0, 64), 64*DenseMinLen), false},
		{"long and sparse", strideFrom(4*DenseMinLen, 7, 65), false},
		{"long and dense at the top of the id space", strideFrom(2*DenseMinLen, 1<<32-1-3*(2*DenseMinLen-1), 3), true},
		{"empty", nil, false},
		{"not ascending", append(strideFrom(DenseMinLen, 1000, 1), 3), false},
		{"an id twice", append(strideFrom(DenseMinLen, 0, 1), DenseMinLen-1, DenseMinLen), false},
	} {
		if _, ok := NewDenseSet(c.list, nil); ok != c.set {
			t.Errorf("%s: dense set %v, want %v", c.name, ok, c.set)
		}
	}
}

// TestDenseSetToleratesUnsorted hands the set kernels what a flipped offset
// bit produces: a list whose first or last id belongs to a neighbour, under
// the set of the intact list and under its own. The result is unspecified;
// nothing may fault.
func TestDenseSetToleratesUnsorted(t *testing.T) {
	s := new(Scratch)
	s.EnsureUniverse(1 << 14) // as the engines do: the probes index the bitmap unchecked
	good := strideFrom(2*DenseMinLen, 100, 3)
	gset, _ := denseSet(good)
	headOff := append([]graph.V{9000}, good[1:]...)
	tailOff := append(slices.Clone(good[1:]), 3)
	for _, b := range [][]graph.V{headOff, tailOff} {
		own, _ := denseSet(b) // nil if the builder refuses the list
		for _, set := range []*DenseSet{gset, own} {
			for _, a := range [][]graph.V{{0, 99, 100, 101, 3000, 9000}, good[:100], strideFrom(400, 0, 5)} {
				for _, m := range []Method{MethodHybrid, MethodSSI, MethodBinary} {
					s.CountIndexed(m, a, b, set)
				}
			}
		}
	}
}

// TestSlabCarves pins the slab's contract: arrays come zeroed and disjoint
// out of few allocations, a large one gets its own, and a nil slab works.
func TestSlabCarves(t *testing.T) {
	var m Slab
	var got [][]uint32
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			got = append(got[:min(len(got), 999)], m.uint32s(1+i%97))
		}
	})
	if allocs > 20 {
		t.Errorf("1000 small arrays took %.0f allocations", allocs)
	}
	a, b := m.uint32s(10), m.uint32s(10)
	a = append(a[:5], 1, 2, 3, 4, 5, 6) // past its capacity: must not reach b
	for _, v := range b {
		if v != 0 {
			t.Fatalf("a carved array is not zero, or shares memory with its neighbour: %v", b)
		}
	}
	before := m.MemBytes()
	big := m.uint64s(slabChunkBytes)
	if len(big) != slabChunkBytes || m.MemBytes() != before+8*slabChunkBytes {
		t.Errorf("large array: %d words, slab grew by %d bytes", len(big), m.MemBytes()-before)
	}
	if w := (*Slab)(nil).uint64s(3); len(w) != 3 {
		t.Errorf("nil slab: %d words, want 3", len(w))
	}
}
