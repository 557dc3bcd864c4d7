package graph_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lcc"
)

// TestSnapshotSumsSameThroughFallback: the integrity sums a snapshot
// records are over the little-endian image of its tables whichever way the
// image is produced — a snapshot summed through the byte view verifies
// through the fallback and the other way round, and damage still shows.
func TestSnapshotSumsSameThroughFallback(t *testing.T) {
	defer graph.SetPortableBytes(false)
	g := gen.ErdosRenyi(3000, 20000, graph.Undirected, 5)
	for _, storage := range []lcc.StorageMode{lcc.StoragePlain, lcc.StorageCompressed} {
		var snaps [2]*lcc.Snapshot
		for i, portable := range []bool{false, true} {
			graph.SetPortableBytes(portable)
			s, err := lcc.NewSnapshotOpts(g, lcc.SnapshotOptions{Ranks: 5, Storage: storage})
			if err != nil {
				t.Fatal(err)
			}
			snaps[i] = s
		}
		for i, portable := range []bool{true, false} {
			graph.SetPortableBytes(portable)
			if err := snaps[i].Verify(); err != nil {
				t.Errorf("%v: snapshot summed with portable=%v fails Verify with portable=%v: %v", storage, !portable, portable, err)
			}
		}
		for _, section := range []string{lcc.SectionOffsets, lcc.SectionAdjacency, lcc.SectionResolve} {
			if err := snaps[0].CorruptForTest(3, section); err != nil {
				t.Fatal(err)
			}
			var ie *lcc.IntegrityError
			if err := snaps[0].Verify(); !errors.As(err, &ie) || ie.Section != section {
				t.Errorf("%v: flipped %s bit: Verify = %v", storage, section, err)
			}
			snaps[0].CorruptForTest(3, section) // flip it back
		}
	}
}

// BenchmarkReadBinaryStore is the container half of set-up on the
// benchmark's R-MAT graph: bytes in memory to a validated resident store.
func BenchmarkReadBinaryStore(b *testing.B) {
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, gen.MustLoad("rmat-s15-ef16")); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.ReadBinaryStore(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
