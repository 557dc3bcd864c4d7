package graph

import (
	"strings"
	"testing"
)

// This file exercises the small accessor and failure paths the main test
// files leave uncovered: Clone/FromCSR, the Validate error branches and the
// panic paths of the Must* constructors.

func TestKindString(t *testing.T) {
	if Undirected.String() != "undirected" || Directed.String() != "directed" {
		t.Error("Kind.String mismatch")
	}
	if !strings.HasPrefix(Kind(9).String(), "Kind(") {
		t.Error("unknown Kind should stringify with its numeric value")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := MustBuild(Undirected, 4, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	c := g.Clone()
	if c.NumVertices() != g.NumVertices() || c.NumArcs() != g.NumArcs() {
		t.Fatal("clone differs in size")
	}
	// Mutating the clone's backing arrays must not affect the original.
	c.Arcs()[0] = 99
	if g.Arcs()[0] == 99 {
		t.Error("Clone shares the adjacency array")
	}
	c.Offsets()[1] = 77
	if g.Offsets()[1] == 77 {
		t.Error("Clone shares the offsets array")
	}
}

func TestFromCSRAndValidate(t *testing.T) {
	// A valid hand-built path graph 0-1-2.
	g := FromCSR(Undirected, []uint64{0, 1, 3, 4}, []V{1, 0, 2, 1})
	if err := g.Validate(); err != nil {
		t.Fatalf("valid CSR rejected: %v", err)
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d, want 2", g.MaxDegree())
	}

	bad := []struct {
		name string
		g    *Graph
		want string
	}{
		{"empty offsets", FromCSR(Undirected, nil, nil), "empty"},
		{"first offset", FromCSR(Undirected, []uint64{1, 1}, nil), "offsets[0]"},
		{"last offset", FromCSR(Undirected, []uint64{0, 2}, []V{0}), "offsets[n]"},
		{"not monotone", FromCSR(Undirected, []uint64{0, 2, 1, 3}, []V{1, 2, 0}), "monotone"},
		{"out of range", FromCSR(Directed, []uint64{0, 1}, []V{5}), "out-of-range"},
		{"self loop", FromCSR(Directed, []uint64{0, 1}, []V{0}), "self-loop"},
		{"unsorted", FromCSR(Directed, []uint64{0, 2, 2, 2}, []V{2, 1}), "sorted"},
		{"asymmetric", FromCSR(Undirected, []uint64{0, 1, 1}, []V{1}), "reverse arc"},
	}
	for _, tc := range bad {
		err := tc.g.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted a broken graph", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild accepted an out-of-range edge")
		}
	}()
	MustBuild(Undirected, 2, []Edge{{Src: 0, Dst: 7}})
}

// FromCSR wraps pre-built CSR arrays in a Graph without copying. The caller
// asserts that the invariants checked by Validate hold; tests call Validate
// on anything built this way.
func FromCSR(kind Kind, offsets []uint64, adj []V) *Graph {
	return &Graph{kind: kind, offsets: offsets, adj: adj}
}
