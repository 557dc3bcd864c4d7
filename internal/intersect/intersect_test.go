package intersect

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func vs(xs ...uint32) []graph.V {
	out := make([]graph.V, len(xs))
	for i, x := range xs {
		out[i] = graph.V(x)
	}
	return out
}

func TestSSIBasic(t *testing.T) {
	cases := []struct {
		a, b []graph.V
		want int
	}{
		{vs(1, 2, 3), vs(2, 3, 4), 2},
		{vs(), vs(1, 2), 0},
		{vs(1, 2), vs(), 0},
		{vs(1, 3, 5), vs(2, 4, 6), 0},
		{vs(1, 2, 3), vs(1, 2, 3), 3},
		{vs(5), vs(1, 2, 3, 4, 5), 1},
	}
	for _, c := range cases {
		if got, _ := SSI(c.a, c.b); got != c.want {
			t.Errorf("SSI(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestBinaryBasic(t *testing.T) {
	cases := []struct {
		keys, tree []graph.V
		want       int
	}{
		{vs(2, 3), vs(1, 2, 3, 4, 5), 2},
		{vs(), vs(1, 2), 0},
		{vs(1, 2), vs(), 0},
		{vs(0, 6), vs(1, 2, 3, 4, 5), 0},
		{vs(1, 5), vs(1, 2, 3, 4, 5), 2},
	}
	for _, c := range cases {
		if got, _ := Binary(c.keys, c.tree); got != c.want {
			t.Errorf("Binary(%v,%v) = %d, want %d", c.keys, c.tree, got, c.want)
		}
	}
}

func TestOpsComplexities(t *testing.T) {
	// SSI ops bounded by |A|+|B|; binary ops bounded by |A|*ceil(log2 |B|)+|A|.
	a := seqList(0, 100, 2)
	b := seqList(1, 400, 2)
	_, ssiOps := SSI(a, b)
	if ssiOps > len(a)+len(b) {
		t.Errorf("SSI ops %d exceed |A|+|B| = %d", ssiOps, len(a)+len(b))
	}
	_, binOps := Binary(a, b)
	if binOps > len(a)*10 {
		t.Errorf("Binary ops %d exceed |A|·log bound", binOps)
	}
	if binOps == 0 || ssiOps == 0 {
		t.Error("ops not counted")
	}
}

func seqList(start, n, step int) []graph.V {
	out := make([]graph.V, n)
	for i := range out {
		out[i] = graph.V(start + i*step)
	}
	return out
}

// refIntersect is the map-based oracle.
func refIntersect(a, b []graph.V) int {
	m := map[graph.V]bool{}
	for _, x := range a {
		m[x] = true
	}
	c := 0
	for _, x := range b {
		if m[x] {
			c++
		}
	}
	return c
}

func sortedUnique(raw []uint16, mod uint32) []graph.V {
	seen := map[graph.V]bool{}
	var out []graph.V
	for _, r := range raw {
		v := graph.V(uint32(r) % mod)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Property: all methods agree with the oracle on arbitrary sorted lists.
func TestAllMethodsMatchOracle(t *testing.T) {
	f := func(ra, rb []uint16) bool {
		a := sortedUnique(ra, 300)
		b := sortedUnique(rb, 300)
		want := refIntersect(a, b)
		for _, m := range []Method{MethodSSI, MethodBinary, MethodHybrid} {
			if got, _ := Count(m, a, b); got != want {
				t.Logf("method %v: got %d, want %d", m, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPreferSSIRule(t *testing.T) {
	// Eq. (3): SSI iff |B| <= |A|(log2|B|-1).
	cases := []struct {
		lenA, lenB int
		want       bool
	}{
		{100, 100, true},   // similar lengths: merge wins
		{2, 4096, false},   // tiny A, huge B: binary search wins
		{1024, 2048, true}, // ratio 2 << log2(2048)-1 = 10
		{1, 1024, false},
		{0, 10, true},
	}
	for _, c := range cases {
		if got := PreferSSI(c.lenA, c.lenB); got != c.want {
			t.Errorf("PreferSSI(%d,%d) = %v, want %v", c.lenA, c.lenB, got, c.want)
		}
	}
	// Symmetry: order of arguments must not matter.
	if PreferSSI(10, 5000) != PreferSSI(5000, 10) {
		t.Error("PreferSSI not symmetric")
	}
}

func TestUpperSlice(t *testing.T) {
	b := vs(1, 3, 5, 7, 9)
	cases := []struct {
		floor graph.V
		want  int // expected length of suffix
	}{
		{0, 5}, {1, 4}, {4, 3}, {9, 0}, {100, 0},
	}
	for _, c := range cases {
		got := UpperSlice(b, c.floor)
		if len(got) != c.want {
			t.Errorf("UpperSlice(%v, %d) = %v, want %d elems", b, c.floor, got, c.want)
		}
		for _, x := range got {
			if x <= c.floor {
				t.Errorf("UpperSlice(%v, %d) contains %d <= floor", b, c.floor, x)
			}
		}
	}
}

// Property: UpperSlice(b, f) == elements of b strictly greater than f.
func TestUpperSliceProperty(t *testing.T) {
	f := func(raw []uint16, floor uint16) bool {
		b := sortedUnique(raw, 1000)
		got := UpperSlice(b, graph.V(floor))
		want := 0
		for _, x := range b {
			if x > graph.V(floor) {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestThreadModelShape(t *testing.T) {
	tm := DefaultThreadModel()
	// Large lists: parallel must beat sequential.
	seq := tm.EdgeTime(4000, 4000, 1)
	par := tm.EdgeTime(4000, 4000, 16)
	if par >= seq {
		t.Errorf("16 threads (%v ns) not faster than 1 (%v ns) on large lists", par, seq)
	}
	// Tiny lists: below cutoff, thread count is irrelevant.
	if tm.EdgeTime(8, 16, 16) != tm.EdgeTime(8, 16, 1) {
		t.Error("cutoff did not force sequential execution for tiny lists")
	}
	// Region overhead: speedup saturates — 16 threads on medium lists is
	// less than 16x faster.
	seqM := tm.EdgeTime(600, 600, 1)
	parM := tm.EdgeTime(600, 600, 16)
	if seqM/parM > 8 {
		t.Errorf("speedup %.1f on medium lists unrealistically high (region overhead lost)", seqM/parM)
	}
}

func TestCountOrientsShorterList(t *testing.T) {
	// Binary must treat the shorter list as keys regardless of argument
	// order: ops should be identical both ways through Count.
	a := seqList(0, 10, 3)
	b := seqList(0, 1000, 1)
	_, ops1 := Count(MethodBinary, a, b)
	_, ops2 := Count(MethodBinary, b, a)
	if ops1 != ops2 {
		t.Errorf("Count did not orient lists: ops %d vs %d", ops1, ops2)
	}
}

func TestMethodString(t *testing.T) {
	if MethodSSI.String() != "ssi" || MethodBinary.String() != "binary" || MethodHybrid.String() != "hybrid" {
		t.Error("Method.String broken")
	}
	for _, m := range []Method{MethodSSI, MethodBinary, MethodHybrid} {
		if got, err := ParseMethod(m.String()); err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if got, err := ParseMethod(""); err != nil || got != MethodHybrid {
		t.Errorf(`ParseMethod("") = %v, %v, want hybrid`, got, err)
	}
	for _, s := range []string{"hybird", "hash"} {
		if _, err := ParseMethod(s); err == nil {
			t.Errorf("ParseMethod(%q) accepted a method the engine does not have", s)
		}
	}
	if got := Method(MethodHybrid + 1).String(); got != "unknown" {
		t.Errorf("Method(%d).String() = %q, want unknown", MethodHybrid+1, got)
	}
}
