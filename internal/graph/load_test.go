package graph_test

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lcc"
	"repro/internal/part"
)

// TestSnapshotSumsSameThroughFallback: the integrity sums a snapshot
// records are over the little-endian image of its tables whichever way the
// image is produced — a snapshot summed through the byte view verifies
// through the fallback and the other way round, and damage still shows. A
// snapshot is also the same bits — locals, offset pairs, resolve table,
// sums — and ExtractAll the same locals whether the ranks were built one
// after another (GOMAXPROCS 1) or fanned out (GOMAXPROCS 4), under every
// scheme and storage.
func TestSnapshotSumsSameThroughFallback(t *testing.T) {
	defer graph.SetPortableBytes(false)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := gen.ErdosRenyi(20000, 70000, graph.Undirected, 5) // past the fan's cutoff
	for _, scheme := range []part.Scheme{part.Block, part.Cyclic, part.BlockArcs} {
		for _, storage := range []lcc.StorageMode{lcc.StoragePlain, lcc.StorageCompressed} {
			build := func(procs int, portable bool) *lcc.Snapshot {
				runtime.GOMAXPROCS(procs)
				graph.SetPortableBytes(portable)
				s, err := lcc.NewSnapshotOpts(g, lcc.SnapshotOptions{Ranks: 5, Scheme: scheme, Storage: storage})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			snaps := [2]*lcc.Snapshot{build(4, false), build(4, true)}
			if serial := build(1, false); !reflect.DeepEqual(serial, snaps[0]) {
				t.Errorf("%v %v: the snapshot built at GOMAXPROCS 4 differs from the one built at 1", scheme, storage)
			}
			pt, err := part.Build(scheme, g, 5)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GOMAXPROCS(1)
			serial := part.ExtractAll(g, pt)
			runtime.GOMAXPROCS(4)
			if !reflect.DeepEqual(serial, part.ExtractAll(g, pt)) {
				t.Errorf("%v: ExtractAll at GOMAXPROCS 4 differs from ExtractAll at 1", scheme)
			}
			for i, portable := range []bool{true, false} {
				graph.SetPortableBytes(portable)
				if err := snaps[i].Verify(); err != nil {
					t.Errorf("%v %v: snapshot summed with portable=%v fails Verify with portable=%v: %v", scheme, storage, !portable, portable, err)
				}
			}
			for _, section := range []string{lcc.SectionOffsets, lcc.SectionAdjacency, lcc.SectionResolve} {
				if err := snaps[0].CorruptForTest(3, section); err != nil {
					t.Fatal(err)
				}
				var ie *lcc.IntegrityError
				if err := snaps[0].Verify(); !errors.As(err, &ie) || ie.Section != section {
					t.Errorf("%v %v: flipped %s bit: Verify = %v", scheme, storage, section, err)
				}
				snaps[0].CorruptForTest(3, section) // flip it back
			}
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
