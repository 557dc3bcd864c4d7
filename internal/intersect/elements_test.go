package intersect

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func sortedRandomList(rng *rand.Rand, n, span int) []graph.V {
	seen := make(map[graph.V]bool, n)
	for len(seen) < n {
		seen[graph.V(rng.IntN(span))] = true
	}
	out := make([]graph.V, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refIntersection is the trivial map-based reference.
func refIntersection(a, b []graph.V) []graph.V {
	in := make(map[graph.V]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	var out []graph.V
	for _, x := range b {
		if in[x] {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestElementsAllMethodsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	methods := []Method{MethodSSI, MethodBinary, MethodHybrid}
	for trial := 0; trial < 200; trial++ {
		a := sortedRandomList(rng, rng.IntN(40), 120)
		b := sortedRandomList(rng, rng.IntN(40), 120)
		want := refIntersection(a, b)
		for _, m := range methods {
			got, _ := Elements(m, a, b, nil)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d method %s: Elements = %v, want %v (a=%v b=%v)",
					trial, m, got, want, a, b)
			}
		}
	}
}

// TestElementsLenEqualsCount: for every method, len(Elements) == Count, and
// the element variants charge the same ops as their counting twins.
func TestElementsLenEqualsCount(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 1))
	for trial := 0; trial < 100; trial++ {
		a := sortedRandomList(rng, rng.IntN(60), 200)
		b := sortedRandomList(rng, rng.IntN(60), 200)
		for _, m := range []Method{MethodSSI, MethodBinary, MethodHybrid} {
			cnt, cops := Count(m, a, b)
			els, eops := Elements(m, a, b, nil)
			if len(els) != cnt {
				t.Fatalf("method %s: len(Elements)=%d, Count=%d", m, len(els), cnt)
			}
			if cops != eops {
				t.Fatalf("method %s: Elements ops=%d, Count ops=%d", m, eops, cops)
			}
		}
	}
}

func TestElementsAppendsToDst(t *testing.T) {
	a := []graph.V{1, 2, 3}
	b := []graph.V{2, 3, 4}
	dst := []graph.V{99}
	got, _ := Elements(MethodSSI, a, b, dst)
	want := []graph.V{99, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Elements with prefilled dst = %v, want %v", got, want)
	}
}

func TestElementsEmptyInputs(t *testing.T) {
	for _, m := range []Method{MethodSSI, MethodBinary, MethodHybrid} {
		if got, ops := Elements(m, nil, nil, nil); len(got) != 0 || ops != 0 {
			t.Errorf("method %s: Elements(nil,nil) = %v ops=%d, want empty, 0", m, got, ops)
		}
		if got, _ := Elements(m, []graph.V{1, 2}, nil, nil); len(got) != 0 {
			t.Errorf("method %s: Elements(x, nil) = %v, want empty", m, got)
		}
	}
}

func TestElementsSelfIntersection(t *testing.T) {
	a := []graph.V{3, 7, 11, 200}
	for _, m := range []Method{MethodSSI, MethodBinary, MethodHybrid} {
		got, _ := Elements(m, a, a, nil)
		if !reflect.DeepEqual(got, a) {
			t.Errorf("method %s: self-intersection = %v, want %v", m, got, a)
		}
	}
}

// TestElementsQuickMethodEquivalence: all three methods return the same
// set for arbitrary sorted inputs (property-based).
func TestElementsQuickMethodEquivalence(t *testing.T) {
	f := func(seedA, seedB uint64, la, lb uint8) bool {
		rngA := rand.New(rand.NewPCG(seedA, 0))
		rngB := rand.New(rand.NewPCG(seedB, 1))
		a := sortedRandomList(rngA, int(la)%50, 150)
		b := sortedRandomList(rngB, int(lb)%50, 150)
		ssi, _ := Elements(MethodSSI, a, b, nil)
		bin, _ := Elements(MethodBinary, a, b, nil)
		hyb, _ := Elements(MethodHybrid, a, b, nil)
		eq := func(x, y []graph.V) bool {
			if len(x) != len(y) {
				return false
			}
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
			return true
		}
		return eq(ssi, bin) && eq(ssi, hyb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
