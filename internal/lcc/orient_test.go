package lcc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"unsafe"

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

// indexCensus counts the filled entries of s's index, those with a
// directory, and the bytes it holds.
func indexCensus(s *Snapshot) (filled, hubs int, bytes int64) {
	ix := s.orient
	for v := range ix.word {
		if w := ix.word[v].Load(); w != 0 {
			filled++
			if w&hubFlag != 0 {
				hubs++
			}
		}
	}
	bytes = int64(4*len(ix.word) + 8*len(ix.page))
	for i := range ix.page {
		if pg := ix.page[i].Load(); pg != nil {
			bytes += int64(unsafe.Sizeof(*pg))
			for j := range pg {
				bytes += int64(pg[j].dir.MemBytes())
			}
		}
	}
	return filled, hubs, bytes
}

// TestWarmIndexMatchesFresh compares every query on a snapshot of its own,
// whose ranks fill the index as they go, with the same query on a snapshot
// earlier runs have filled completely.
func TestWarmIndexMatchesFresh(t *testing.T) {
	g := recycleGraph()
	methods := []intersect.Method{intersect.MethodHybrid, intersect.MethodBinary}
	for _, storage := range []StorageMode{StoragePlain, StorageCompressed} {
		warm := recycleSnapshot(t, g, storage)
		for _, m := range methods {
			if _, err := warm.RunCtx(context.Background(), pullOpts(2, m)); err != nil {
				t.Fatal(err)
			}
		}
		filled, hubs, bytes := indexCensus(warm)
		if filled == 0 || hubs == 0 {
			t.Fatalf("%v: warm index has %d entries, %d directories; the graph must exercise both", storage, filled, hubs)
		}
		// 4 B per vertex and 1 B per indexed id (an upper list is at most
		// the whole list), plus the page table and the entries themselves.
		n := int64(g.NumVertices())
		if bound := 4*n + int64(g.NumArcs()) + 8*(n>>hubPageBits+1) + int64(hubs+1<<hubPageBits)*int64(unsafe.Sizeof(hubEntry{})); bytes > bound {
			t.Errorf("%v: index holds %d bytes, bound %d", storage, bytes, bound)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, m := range methods {
				name := fmt.Sprintf("%v/workers=%d/%v", storage, workers, m)
				want, wantSum := runDigested(t, recycleSnapshot(t, g, storage), pullOpts(workers, m))
				got, gotSum := runDigested(t, warm, pullOpts(workers, m))
				diffRuns(t, name, got, want, gotSum, wantSum)
			}
		}
		if f, h, _ := indexCensus(warm); f != filled || h != hubs {
			t.Errorf("%v: index went from %d/%d entries/directories to %d/%d on reruns", storage, filled, hubs, f, h)
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
	g := recycleGraph()
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

// TestDamagedIndexIsCaughtAndHarmless flips bits in a filled index. Verify
// must name the entry; and because every use re-validates what it reads, a
// query over the damaged index still returns the fresh snapshot's bits.
func TestDamagedIndexIsCaughtAndHarmless(t *testing.T) {
	g := recycleGraph()
	opt := pullOpts(2, intersect.MethodHybrid)
	want, wantSum := runDigested(t, recycleSnapshot(t, g, StoragePlain), opt)

	s := recycleSnapshot(t, g, StoragePlain)
	if err := s.CorruptForTest(-1, SectionIndex); err == nil {
		t.Error("CorruptForTest on an empty index: no error")
	}
	runDigested(t, s, opt)
	if err := s.CorruptForTest(-1, SectionIndex); err != nil {
		t.Fatal(err)
	}
	var ie *IntegrityError
	if err := s.Verify(); !errors.As(err, &ie) || ie.Section != SectionIndex || ie.Rank != -1 {
		t.Fatalf("Verify over a flipped index word = %v, want an index IntegrityError", err)
	}
	got, gotSum := runDigested(t, s, opt)
	diffRuns(t, "flipped word", got, want, gotSum, wantSum)

	// Most words off by a little or a lot — upper offsets past their list,
	// hub slots that were never filled — and every hub with its neighbour's
	// upper offset nudged and directory swapped in.
	ix := s.orient
	for v := range ix.word {
		if w := ix.word[v].Load(); w != 0 && v%3 != 0 {
			ix.word[v].Store(w + uint32(1+v%5)<<uint(v%31))
		}
	}
	for i := range ix.page {
		if pg := ix.page[i].Load(); pg != nil {
			for j := range pg {
				pg[j].upper += j%3 - 1
				if j%2 == 1 {
					pg[j].dir, pg[j-1].dir = pg[j-1].dir, pg[j].dir
				}
			}
		}
	}
	got, gotSum = runDigested(t, s, opt)
	diffRuns(t, "damaged throughout", got, want, gotSum, wantSum)
}

// TestCorruptResidentThenRun flips a bit of the resident offsets or
// adjacency under an index filled from the intact lists, and under an empty
// one, and runs. The results are wrong by construction; the run must end
// without a fault the supervisor would have to catch: lists that stopped
// matching their entries fall back to the searches.
func TestCorruptResidentThenRun(t *testing.T) {
	g := recycleGraph()
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

// TestUpperWithoutIndex pins the nil index of the snapshot-less engines and
// the entry points of a filled one against the search they replace.
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
