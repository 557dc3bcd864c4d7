package lcc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
)

// The orientation index (orient.go) fills while queries run and is read by
// every later edge and run. These tests pin that nothing of it can reach the
// model: a snapshot answers the same whatever its index holds — nothing,
// everything, or damage.

func pullOpts(workers int, m intersect.Method) Options {
	return Options{Workers: workers, Method: m, DoubleBuffer: true}
}

// orientGraph is recycleGraph four times the size: R-MAT s10 has no upper
// list of 256 ids, this one has seven, all dense enough for a DenseSet.
func orientGraph() *graph.Graph {
	return gen.Prepare(gen.RMAT(gen.DefaultRMAT(11, 16, graph.Undirected, 5)), 5)
}

// hubEntries returns the filled hub entries of ix, by vertex.
func hubEntries(ix *orientIndex) map[graph.V]*hubEntry {
	hubs := map[graph.V]*hubEntry{}
	for v := range ix.word {
		if w := ix.word[v].Load(); w&hubFlag != 0 {
			if h := ix.hub(w &^ hubFlag); h != nil {
				hubs[graph.V(v)] = h
			}
		}
	}
	return hubs
}

// indexCensus counts the filled entries of s's index, those with a DenseSet,
// the bytes of the sets' arrays and the bytes the index holds in all.
func indexCensus(s *Snapshot) (filled, hubs int, arrays, bytes int64) {
	ix := s.orient
	for v := range ix.word {
		if ix.word[v].Load() != 0 {
			filled++
		}
	}
	for _, h := range hubEntries(ix) {
		hubs++
		arrays += int64(h.set.MemBytes())
	}
	bytes = int64(4*len(ix.word)+8*len(ix.page)) + int64(ix.mem.MemBytes())
	for i := range ix.page {
		if pg := ix.page[i].Load(); pg != nil {
			bytes += int64(unsafe.Sizeof(*pg))
		}
	}
	return filled, hubs, arrays, bytes
}

// TestWarmIndexMatchesFresh compares every query on a snapshot of its own,
// whose ranks fill the index as they go, with the same query on a snapshot
// earlier runs have filled completely.
func TestWarmIndexMatchesFresh(t *testing.T) {
	g := orientGraph()
	methods := []intersect.Method{intersect.MethodHybrid, intersect.MethodBinary}
	for _, storage := range []StorageMode{StoragePlain, StorageCompressed} {
		warm := recycleSnapshot(t, g, storage)
		for _, m := range methods {
			if _, err := warm.RunCtx(context.Background(), pullOpts(2, m)); err != nil {
				t.Fatal(err)
			}
		}
		filled, hubs, arrays, bytes := indexCensus(warm)
		if hubs == 0 || filled == hubs {
			t.Fatalf("%v: warm index has %d entries, %d of them with a dense set; the graph must exercise both kinds",
				storage, filled, hubs)
		}
		// 4 B per vertex, the page table and the entries themselves; per
		// set a 64 B header, in chunks of 64, and the arrays: 12 B per id
		// and a terminator (an upper list is at most the whole list), a
		// third on top for chunk tails, and the two open chunks.
		n := int64(g.NumVertices())
		if bound := 4*n + 8*(n>>hubPageBits+1) + int64(hubs+1<<hubPageBits)*int64(unsafe.Sizeof(hubEntry{})) +
			int64(hubs+64)*64 + arrays*4/3 + 2<<16; arrays > 12*int64(g.NumArcs())+4*int64(hubs) || bytes > bound {
			t.Errorf("%v: index holds %d bytes (%d in arrays), bound %d", storage, bytes, arrays, bound)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, m := range methods {
				name := fmt.Sprintf("%v/workers=%d/%v", storage, workers, m)
				want, wantSum := runDigested(t, recycleSnapshot(t, g, storage), pullOpts(workers, m))
				got, gotSum := runDigested(t, warm, pullOpts(workers, m))
				diffRuns(t, name, got, want, gotSum, wantSum)
			}
		}
		if f, h, _, b := indexCensus(warm); f != filled || h != hubs || b != bytes {
			t.Errorf("%v: index went from %d/%d entries/dense sets in %d bytes to %d/%d in %d on reruns",
				storage, filled, hubs, bytes, f, h, b)
		}
		if err := warm.Verify(); err != nil {
			t.Errorf("%v: Verify on a warm snapshot: %v", storage, err)
		}
	}
}

// TestConcurrentFirstRunsFillIndex starts the first runs of a snapshot at
// once, so their ranks race to fill and publish the same entries. Not
// skipped under -short: the race lane covers the publish through it.
func TestConcurrentFirstRunsFillIndex(t *testing.T) {
	g := orientGraph()
	opts := []Options{pullOpts(2, intersect.MethodHybrid), pullOpts(2, intersect.MethodBinary), pullOpts(1, intersect.MethodHybrid)}
	want := make([]*Result, len(opts))
	for i, o := range opts {
		var err error
		if want[i], err = recycleSnapshot(t, g, StoragePlain).RunCtx(context.Background(), o); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		s := recycleSnapshot(t, g, StoragePlain)
		got := make([]*Result, len(opts))
		errs := make([]error, len(opts))
		var wg sync.WaitGroup
		for i, o := range opts {
			wg.Add(1)
			go func(i int, o Options) {
				defer wg.Done()
				got[i], errs[i] = s.RunCtx(context.Background(), o)
			}(i, o)
		}
		verr := s.Verify() // and a scrub pass over entries as they appear
		wg.Wait()
		if verr != nil {
			t.Fatalf("round %d: Verify during the first runs: %v", round, verr)
		}
		for i := range opts {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			diffRuns(t, fmt.Sprintf("round %d query %d", round, i), got[i], want[i], nil, nil)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("round %d: Verify after the first runs: %v", round, err)
		}
	}
}

// TestDamagedIndexIsCaughtAndHarmless damages a filled index every way its
// memory can go wrong. Verify must name the entry; and because every use
// binds what it reads to the list in hand and checks it, a query over the
// damaged index still returns the fresh snapshot's bits.
func TestDamagedIndexIsCaughtAndHarmless(t *testing.T) {
	g := orientGraph()
	opt := pullOpts(2, intersect.MethodHybrid)
	want, wantSum := runDigested(t, recycleSnapshot(t, g, StoragePlain), opt)
	// filledSnapshot returns a snapshot whose index a run has filled.
	filledSnapshot := func() *Snapshot {
		s := recycleSnapshot(t, g, StoragePlain)
		runDigested(t, s, opt)
		return s
	}
	// damaged requires Verify to name the index and a query not to notice.
	damaged := func(s *Snapshot, what string) {
		t.Helper()
		var ie *IntegrityError
		if err := s.Verify(); !errors.As(err, &ie) || ie.Section != SectionIndex || ie.Rank != -1 {
			t.Errorf("%s: Verify = %v, want an index IntegrityError", what, err)
		}
		got, gotSum := runDigested(t, s, opt)
		diffRuns(t, what, got, want, gotSum, wantSum)
	}

	s := recycleSnapshot(t, g, StoragePlain)
	if err := s.CorruptForTest(-1, SectionIndex); err == nil {
		t.Error("CorruptForTest on an empty index: no error")
	}
	runDigested(t, s, opt)
	if err := s.CorruptForTest(-1, SectionIndex); err != nil {
		t.Fatal(err)
	}
	damaged(s, "flipped word")

	damageIndex(s.orient)
	damaged(s, "damaged throughout")

	// The dense sets, by vertex, of a snapshot whose index a run has filled.
	denseHubs := func() (*Snapshot, map[graph.V]*hubEntry) {
		s := filledSnapshot()
		hubs := hubEntries(s.orient)
		if len(hubs) < 2 {
			t.Fatalf("%d dense sets in the filled index; the graph must have some", len(hubs))
		}
		return s, hubs
	}
	// A bit flipped in every other word, in every other rank entry, in the
	// recorded sum, in the header, of each.
	for _, c := range []struct {
		what  string
		field intersect.DenseField
		from  int
		all   bool
	}{
		{"set words flipped", intersect.DenseWords, 0, true},
		{"set ranks flipped", intersect.DenseRank, 1, true},
		{"set sums flipped", intersect.DenseSum, 5, false},
		{"set headers flipped", intersect.DenseLast, 3, false},
	} {
		s, hubs := denseHubs()
		for _, h := range hubs {
			for i := c.from; h.set.CorruptForTest(c.field, i) && c.all; i += 2 {
			}
		}
		damaged(s, c.what)
	}

	// Each dense hub with the next one's set: intact sets of other lists.
	s, hubs := denseHubs()
	var entries []*hubEntry
	for _, h := range hubs {
		entries = append(entries, h)
	}
	first := entries[0].set
	for i, h := range entries {
		if i+1 < len(entries) {
			h.set = entries[i+1].set
		} else {
			h.set = first
		}
	}
	damaged(s, "sets rotated between hubs")

	// A set left behind a list that has since changed: each dense hub gets
	// the set of its upper list less the last id, as if the list had grown.
	s, hubs = denseHubs()
	var buf []graph.V
	var twinOf graph.V
	for v, h := range hubs {
		buf = s.adjInto(v, buf)
		up := intersect.UpperSlice(buf, v)
		stale, ok := intersect.NewDenseSet(up[:len(up)-1], nil)
		if !ok {
			t.Fatalf("vertex %d: no dense set over its upper list less one id", v)
		}
		h.set, twinOf = stale, v
	}
	damaged(s, "sets of shorter lists")

	// What no use can catch and Verify alone does: the set of a list of the
	// same length and ends with another id between them. The query runs —
	// nothing may fault — and answers for the set's list, not the graph's.
	buf = s.adjInto(twinOf, buf)
	up := append([]graph.V(nil), intersect.UpperSlice(buf, twinOf)...)
	for k := 1; k+1 < len(up); k++ {
		if up[k]+1 < up[k+1] {
			up[k]++
			break
		}
	}
	twin, _ := intersect.NewDenseSet(up, nil)
	s, hubs = denseHubs()
	hubs[twinOf].set = twin
	var ie *IntegrityError
	if err := s.Verify(); !errors.As(err, &ie) || ie.Section != SectionIndex || ie.Vertex != twinOf {
		t.Errorf("twin set: Verify = %v, want an index IntegrityError at vertex %d", err, twinOf)
	}
	runDigested(t, s, opt)
}

// TestCorruptResidentThenRun flips a bit of the resident offsets or
// adjacency under an index filled from the intact lists, and under an empty
// one, and runs. The results are wrong by construction; the run must end
// without a fault the supervisor would have to catch: lists that stopped
// matching their entries fall back to the searches.
func TestCorruptResidentThenRun(t *testing.T) {
	g := orientGraph()
	for _, section := range []string{SectionOffsets, SectionAdjacency} {
		for _, warm := range []bool{false, true} {
			for rank := 0; rank < recycleRanks; rank++ {
				s := recycleSnapshot(t, g, StoragePlain)
				for _, m := range []intersect.Method{intersect.MethodHybrid, intersect.MethodBinary} {
					if warm {
						if _, err := s.RunCtx(context.Background(), pullOpts(2, m)); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := s.CorruptForTest(rank, section); err != nil {
					t.Fatal(err)
				}
				for _, m := range []intersect.Method{intersect.MethodHybrid, intersect.MethodBinary} {
					if _, err := s.RunCtx(context.Background(), pullOpts(2, m)); err != nil {
						t.Errorf("%s of rank %d flipped, warm=%v, %v: %v", section, rank, warm, m, err)
					}
				}
			}
		}
	}
}

// TestUpperWithoutIndex pins the nil index and the entry points of a filled
// one against the search they replace.
func TestUpperWithoutIndex(t *testing.T) {
	list := []graph.V{2, 3, 5, 8, 13, 21}
	ix := newOrientIndex(32)
	for _, vj := range []graph.V{0, 2, 4, 13, 21, 30, 31, 40} {
		want := intersect.UpperSlice(list, vj)
		for _, x := range []*orientIndex{nil, ix, ix} { // nil, the filling call, the filled one
			got, dir := x.upper(vj, list)
			if len(got) != len(want) || (len(got) > 0 && &got[0] != &want[0]) || dir != nil {
				t.Errorf("upper(%d) = %v (dir %v), want %v", vj, got, dir, want)
			}
		}
	}
}
