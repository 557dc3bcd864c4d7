package gen

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/graph"
)

// evictMemo drops the in-memory memo entry for name so the next Load goes
// through the disk-cache path again (tests only; the per-entry sync.Once
// makes entries otherwise immortal within a process).
func evictMemo(name string) {
	cacheMu.Lock()
	delete(cache, name)
	cacheMu.Unlock()
}

func sameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.Kind() != b.Kind() || a.NumVertices() != b.NumVertices() || a.NumArcs() != b.NumArcs() {
		t.Fatalf("graph shape differs: kind %v/%v n %d/%d arcs %d/%d",
			a.Kind(), b.Kind(), a.NumVertices(), b.NumVertices(), a.NumArcs(), b.NumArcs())
	}
	for v := 0; v < a.NumVertices(); v++ {
		la, lb := a.Adj(graph.V(v)), b.Adj(graph.V(v))
		if len(la) != len(lb) {
			t.Fatalf("vertex %d: degree %d vs %d", v, len(la), len(lb))
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("vertex %d: neighbour %d is %d vs %d", v, i, la[i], lb[i])
			}
		}
	}
}

// TestDiskCachePersistsAndReloads pins the round trip: a cold Load with
// the cache enabled persists the prepared graph; a later cold Load (memo
// evicted, as a fresh process would be) deserializes the identical graph
// instead of regenerating; a corrupted file is a miss, not an error.
func TestDiskCachePersistsAndReloads(t *testing.T) {
	const name = "fb-sim"
	SetCacheDir(t.TempDir())
	defer SetCacheDir("")
	defer evictMemo(name) // leave no disk-backed memo for other tests

	evictMemo(name)
	g1 := MustLoad(name)
	path := CachePath(name)
	if path == "" {
		t.Fatal("CachePath empty with cache dir set")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("dataset was not persisted: %v", err)
	}

	evictMemo(name)
	g2 := MustLoad(name)
	if g1 == g2 {
		t.Fatal("second load returned the memoized pointer; memo eviction failed")
	}
	sameGraph(t, g1, g2)

	// Corrupt one payload byte: the checksummed read must fail closed and
	// Load must regenerate (and re-persist) rather than surface bytes.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	evictMemo(name)
	g3 := MustLoad(name)
	sameGraph(t, g1, g3)
}

// TestDiskCacheConcurrentLoads exercises the per-entry sync.Once with the
// disk cache enabled: many goroutines cold-loading the same dataset must
// produce exactly one generation (same returned pointer) and one valid
// cache file — no torn writes, no duplicate temp files left behind.
func TestDiskCacheConcurrentLoads(t *testing.T) {
	const name = "rmat-s14-ef8"
	dir := t.TempDir()
	SetCacheDir(dir)
	defer SetCacheDir("")
	defer evictMemo(name)

	evictMemo(name)
	const loaders = 8
	graphs := make([]*graph.Graph, loaders)
	var wg sync.WaitGroup
	for i := 0; i < loaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			graphs[i] = MustLoad(name)
		}(i)
	}
	wg.Wait()
	for i := 1; i < loaders; i++ {
		if graphs[i] != graphs[0] {
			t.Fatalf("loader %d got a distinct graph: sync.Once discipline broken", i)
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	if len(files) != 1 || filepath.Join(dir, files[0]) != CachePath(name) {
		t.Fatalf("cache dir holds %v, want exactly the entry for %s", files, name)
	}

	// The persisted file must round-trip through the checksummed reader.
	f, err := os.Open(CachePath(name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := graph.ReadBinaryStore(f)
	if err != nil {
		t.Fatalf("persisted file does not parse: %v", err)
	}
	sameGraph(t, graphs[0], graph.Materialize(st))
}

// TestDiskCachePoisonedStreamIsAMiss: a cache file whose checksums hold
// over a varint stream that does not decode is a miss like any other
// corruption. It used to panic inside the first Load's sync.Once, after
// which every Load of the name returned (nil, nil).
func TestDiskCachePoisonedStreamIsAMiss(t *testing.T) {
	const name = "fb-sim"
	SetCacheDir(t.TempDir())
	defer SetCacheDir("")
	defer evictMemo(name)

	evictMemo(name)
	want := MustLoad(name)
	poisonStream(t, CachePath(name))
	evictMemo(name)
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("load %d from the poisoned cache panicked: %v", i, p)
				}
			}()
			g, err := Load(name)
			if err != nil || g == nil {
				t.Errorf("load %d from the poisoned cache: graph %v, error %v", i, g, err)
				return
			}
			sameGraph(t, want, g)
		}()
	}
}

// poisonStream sets the continuation bit on the byte that ends the first
// varint of a cache file's adjacency stream, then recomputes the section's
// and the header's CRC-32C so only a decode can tell.
func poisonStream(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	table := raw[40 : 40+16*le.Uint32(raw[36:])] // {id u32, length u64, crc u32} per section
	headerEnd := len(table) + 44
	stream := raw[headerEnd+int(le.Uint64(table[4:])):][:le.Uint64(table[20:])]
	i := 0
	for stream[i] >= 0x80 {
		i++
	}
	stream[i] |= 0x80
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	le.PutUint32(table[28:], crc32.Checksum(stream, castagnoli))
	le.PutUint32(raw[headerEnd-4:], crc32.Checksum(raw[:headerEnd-4], castagnoli))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
