package lcc

import (
	"errors"
	"testing"

	"repro/internal/part"
	"repro/internal/rma"
)

// TestVerifySeesWhatQueriesRead damages the table a query reads besides an
// owner's own lists, the records the offsets window serves, and Verify must
// name it.
func TestVerifySeesWhatQueriesRead(t *testing.T) {
	t.Run("offsets window", func(t *testing.T) {
		s, err := NewSnapshotOpts(stageGraph(), SnapshotOptions{Ranks: 8, Scheme: part.Block})
		if err != nil {
			t.Fatal(err)
		}
		wOff, _ := s.windows(rma.NewComm(8, rma.DefaultCostModel()))
		slot, li := unpackResolve(s.resolve[600])
		wOff.ViewUint64s(slot, 16*li, 16)[0] ^= 2
		var ie *IntegrityError
		if err := s.Verify(); !errors.As(err, &ie) || ie.Rank != slot || ie.Section != SectionOffsets {
			t.Fatalf("Verify after a flip in rank %d's offsets window: %v, want rank %d's %s section", slot, err, slot, SectionOffsets)
		}
	})
}
