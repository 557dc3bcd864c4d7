package graph

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// atWidths runs f at GOMAXPROCS 1, where every load check runs on the
// caller's goroutine, and at 4, where the checks of a graph past the fan's
// cutoff run on goroutines (sched.Fan).
func atWidths(f func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		f(procs)
	}
}

// fanGraph is a graph past the fan's cutoff and two of its vertices, a
// tenth and nine tenths of the way through, that lie in different check
// ranges at any width and both have lists.
func fanGraph(t *testing.T) (g *Graph, lo, hi int) {
	g = randomStoreGraph(t, 20000, 70000, 11)
	lo, hi = g.NumVertices()/10, 9*g.NumVertices()/10
	for g.OutDegree(V(lo)) == 0 {
		lo++
	}
	for g.OutDegree(V(hi)) == 0 {
		hi++
	}
	return g, lo, hi
}

// TestReadBinaryStoreErrorSameAtAnyWidth: a container's checks report the
// same *CorruptError fanned out as in one pass: of two content defects the
// lowest vertex's, a section's checksum before any content defect in it,
// and a varint list that does not decode.
func TestReadBinaryStoreErrorSameAtAnyWidth(t *testing.T) {
	g, lo, hi := fanGraph(t)
	flipAdj := func(data []byte) []byte {
		h, err := decodeBinHeader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		data[40+16*len(h.sects)+4+int(h.sects[0].length)] ^= 0x40 // the first adjacency byte
		return data
	}

	// Raw: a self-loop at lo, an id n at hi; CRCs over the damage.
	adj := append([]V(nil), g.adj...)
	adj[g.offsets[lo]], adj[g.offsets[hi]] = V(lo), V(g.NumVertices())
	var raw bytes.Buffer
	if err := WriteBinary(&raw, &Graph{kind: g.kind, offsets: g.offsets, adj: adj}); err != nil {
		t.Fatal(err)
	}
	// Varint: the last byte of lists lo and hi continues past its list.
	c := CompressGraph(g)
	c.ca.data[c.ca.byteOffAt(lo+1)-1] |= 0x80
	c.ca.data[c.ca.byteOffAt(hi+1)-1] |= 0x80
	var varint bytes.Buffer
	if err := WriteBinaryStore(&varint, c); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"raw, two content defects", fmt.Sprintf("graph: vertex %d has a self-loop", lo), raw.Bytes()},
		{"raw, content defects and a checksum flip", "checksum mismatch", flipAdj(bytes.Clone(raw.Bytes()))},
		{"varint, two lists that do not decode", fmt.Sprintf("list %d does not decode", lo), varint.Bytes()},
		{"varint, undecodable lists and a checksum flip", "checksum mismatch", flipAdj(bytes.Clone(varint.Bytes()))},
	} {
		var first *CorruptError
		atWidths(func(procs int) {
			_, err := ReadBinaryStore(bytes.NewReader(tc.data))
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Section != "adjacency" || !strings.HasPrefix(ce.Reason, tc.want) {
				t.Errorf("%s, GOMAXPROCS %d: got %v, want an adjacency *CorruptError starting %q", tc.name, procs, err, tc.want)
				return
			}
			if first == nil {
				first = ce
			} else if *ce != *first {
				t.Errorf("%s: GOMAXPROCS %d reports %v, GOMAXPROCS 1 %v", tc.name, procs, ce, first)
			}
		})
	}
}

// TestMaterializePanicReachesCaller: a compressed store whose lists do not
// decode panics on the goroutine that materializes it, at any width, and
// a sound one materializes to the same graph.
func TestMaterializePanicReachesCaller(t *testing.T) {
	g, lo, hi := fanGraph(t)
	c := CompressGraph(g)
	atWidths(func(procs int) {
		sameStore(t, g, Materialize(c))
	})
	c.ca.data[c.ca.byteOffAt(lo+1)-1] |= 0x80
	c.ca.data[c.ca.byteOffAt(hi+1)-1] |= 0x80
	atWidths(func(procs int) {
		got := func() (v any) {
			defer func() { v = recover() }()
			Materialize(c)
			return nil
		}()
		if !strings.Contains(fmt.Sprint(got), "corrupt varint adjacency in list") {
			t.Errorf("GOMAXPROCS %d: Materialize of undecodable lists: caller recovered %v", procs, got)
		}
	})
}
