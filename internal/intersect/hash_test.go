package intersect

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// naiveIntersect is the reference: O(|A|·|B|) membership scan.
func naiveIntersect(a, b []graph.V) int {
	count := 0
	for _, x := range a {
		for _, y := range b {
			if x == y {
				count++
				break
			}
		}
	}
	return count
}

func sortedSet(xs []uint32) []graph.V {
	seen := make(map[graph.V]bool, len(xs))
	out := make([]graph.V, 0, len(xs))
	for _, x := range xs {
		v := graph.V(x % 10000)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestHashMatchesNaive(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		a, b := sortedSet(xs), sortedSet(ys)
		want := naiveIntersect(a, b)
		got, _ := Hash(a, b)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHashEmpty(t *testing.T) {
	if c, ops := Hash(nil, nil); c != 0 || ops != 0 {
		t.Fatalf("Hash(nil,nil) = %d,%d, want 0,0", c, ops)
	}
	b := []graph.V{1, 2, 3}
	if c, _ := Hash(nil, b); c != 0 {
		t.Fatalf("Hash(nil,b) = %d, want 0", c)
	}
	if c, _ := Hash(b, nil); c != 0 {
		t.Fatalf("Hash(b,nil) = %d, want 0", c)
	}
}

func TestHashIdentical(t *testing.T) {
	a := make([]graph.V, 1000)
	for i := range a {
		a[i] = graph.V(3 * i)
	}
	c, _ := Hash(a, a)
	if c != len(a) {
		t.Fatalf("Hash(a,a) = %d, want %d", c, len(a))
	}
}

func TestHashDisjoint(t *testing.T) {
	a := []graph.V{0, 2, 4, 6, 8}
	b := []graph.V{1, 3, 5, 7, 9}
	if c, _ := Hash(a, b); c != 0 {
		t.Fatalf("disjoint Hash = %d, want 0", c)
	}
}

func TestHashIndexReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := make([]graph.V, 0, 500)
	seen := map[graph.V]bool{}
	for len(b) < 500 {
		v := graph.V(rng.Intn(5000))
		if !seen[v] {
			seen[v] = true
			b = append(b, v)
		}
	}
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	ix, buildOps := BuildHashIndex(b)
	if buildOps != 2*len(b) {
		t.Fatalf("build ops = %d, want %d", buildOps, 2*len(b))
	}
	if ix.Len() != len(b) {
		t.Fatalf("index Len = %d, want %d", ix.Len(), len(b))
	}
	// Every indexed element must be found; a value past the id range
	// must not.
	for _, x := range b {
		if ok, _ := ix.Probe(x); !ok {
			t.Fatalf("Probe(%d) = false for indexed element", x)
		}
	}
	if ok, _ := ix.Probe(99999); ok {
		t.Fatal("Probe(99999) = true for absent element")
	}
}

func TestHashProbeOpsBounded(t *testing.T) {
	// With power-of-two bins at load factor targetLoad and a mixing
	// hash, bins stay short; assert the average probe cost is within a
	// generous constant of the load factor so a regression to O(n)
	// probes is caught.
	b := make([]graph.V, 4096)
	for i := range b {
		b[i] = graph.V(i * 7)
	}
	ix, _ := BuildHashIndex(b)
	totalOps := 0
	for _, x := range b {
		_, ops := ix.Probe(x)
		totalOps += ops
	}
	avg := float64(totalOps) / float64(len(b))
	if avg > 4*targetLoad {
		t.Fatalf("average probe ops %.1f exceeds %d", avg, 4*targetLoad)
	}
}

func TestMethodHashViaCount(t *testing.T) {
	a := []graph.V{1, 5, 9, 13}
	b := []graph.V{0, 1, 2, 5, 6, 13, 20}
	c, ops := Count(MethodHash, a, b)
	if c != 3 {
		t.Fatalf("Count(MethodHash) = %d, want 3", c)
	}
	if ops <= 0 {
		t.Fatalf("Count(MethodHash) ops = %d, want > 0", ops)
	}
	if MethodHash.String() != "hash" {
		t.Fatalf("MethodHash.String() = %q", MethodHash.String())
	}
}

func TestBinsFor(t *testing.T) {
	cases := []struct{ n, min, max int }{
		{0, 1, 1},
		{1, 1, 1},
		{targetLoad, 1, 1},
		{targetLoad + 1, 2, 2},
		{1024, 128, 512},
	}
	for _, c := range cases {
		b := binsFor(c.n)
		if b < c.min || b > c.max {
			t.Errorf("binsFor(%d) = %d, want in [%d,%d]", c.n, b, c.min, c.max)
		}
		if b&(b-1) != 0 {
			t.Errorf("binsFor(%d) = %d is not a power of two", c.n, b)
		}
	}
}
