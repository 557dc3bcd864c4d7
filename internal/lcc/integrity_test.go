package lcc

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/rma"
)

// TestVerifySeesWhatQueriesRead damages the two tables a query reads besides
// an owner's own lists: the records the offsets window serves, and a
// delegated list as the ranks that do not own it read it. Verify must name
// the first; the second must be read by every rank from the owner's
// checksummed CSR, so a delegated run returns what an undelegated run over
// the same damage returns.
func TestVerifySeesWhatQueriesRead(t *testing.T) {
	g := stageGraph()
	snapshot := func(so SnapshotOptions) *Snapshot {
		t.Helper()
		s, err := NewSnapshotOpts(g, so)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sumT := func(s *Snapshot) int64 {
		t.Helper()
		res, err := s.RunCtx(context.Background(), Options{Workers: 2, DoubleBuffer: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.SumT
	}

	t.Run("offsets window", func(t *testing.T) {
		s := snapshot(SnapshotOptions{Ranks: 8, Scheme: part.Block})
		wOff, _ := s.windows(rma.NewComm(8, rma.DefaultCostModel()))
		slot, li := unpackResolve(s.resolve[600])
		wOff.ViewUint64s(slot, 16*li, 16)[0] ^= 2
		var ie *IntegrityError
		if err := s.Verify(); !errors.As(err, &ie) || ie.Rank != slot || ie.Section != SectionOffsets {
			t.Fatalf("Verify after a flip in rank %d's offsets window: %v, want rank %d's %s section", slot, err, slot, SectionOffsets)
		}
	})

	t.Run("delegated list", func(t *testing.T) {
		plain := SnapshotOptions{Ranks: 8, Scheme: part.Block}
		delegated := plain
		delegated.DelegateBytes = 1 << 12
		clean := sumT(snapshot(plain))
		// Replace one id of a delegated list by another between its
		// neighbours, so the list stays sorted and the replacement is not a
		// self-loop. Each try damages a fresh snapshot: one that has run holds
		// index entries filled from the list as it was.
		d := BuildDelegation(g, delegated.DelegateBytes)
		damage := func(so SnapshotOptions, v graph.V, k int, x graph.V) *Snapshot {
			s := snapshot(so)
			slot, li := unpackResolve(s.resolve[v])
			s.locals[slot].Adj[s.locals[slot].Offsets[li]+uint64(k)] = x
			return s
		}
		for v := graph.V(0); int(v) < g.NumVertices(); v++ {
			if !d.Has(v) {
				continue
			}
			list := g.Adj(v)
			for k := 1; k+1 < len(list); k++ {
				x := list[k] - 1
				if x == list[k-1] {
					x = list[k] + 1
				}
				if x == list[k+1] || x == v {
					continue
				}
				want := sumT(damage(plain, v, k, x))
				if want == clean {
					continue
				}
				if got := sumT(damage(delegated, v, k, x)); got != want {
					t.Errorf("vertex %d's list, id %d -> %d: delegated run Σt %d, undelegated %d (clean %d)", v, list[k], x, got, want, clean)
				}
				return
			}
		}
		t.Fatal("no one-id change of a delegated list moves the undelegated run's Σt")
	})
}
