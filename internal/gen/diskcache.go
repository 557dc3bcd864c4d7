package gen

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/graph"
)

// This file adds the binary disk cache under the in-memory memoization:
// the first Load of a dataset persists the prepared graph in the versioned
// binary container (graph.WriteBinaryStore, compressed adjacency), and
// later Loads — including Loads from a fresh process — deserialize instead
// of regenerating. For the scale-series datasets this turns a multi-minute
// generation into a seconds-long checksummed read.
//
// The cache is opt-in: it activates when SetCacheDir is called or when the
// LCC_GRAPH_CACHE environment variable names a directory. Entries are keyed
// by dataset name, the preparation seed and the binary format version, so a
// registry change that alters any of them misses cleanly instead of serving
// stale bytes; a corrupt or truncated file (graph.CorruptError) is treated
// as a miss and regenerated over.

// prepareSeed is the §II-B relabeling seed baked into every registry
// dataset (see Load); it participates in the disk-cache key.
const prepareSeed = 0xC0FFEE

// CacheDirEnv names the environment variable that enables the disk cache.
const CacheDirEnv = "LCC_GRAPH_CACHE"

var (
	cacheDirMu  sync.Mutex
	cacheDir    string
	cacheDirSet bool
)

// SetCacheDir points the disk cache at dir ("" disables it), overriding
// the LCC_GRAPH_CACHE environment variable. Tests point it at a temp dir.
func SetCacheDir(dir string) {
	cacheDirMu.Lock()
	defer cacheDirMu.Unlock()
	cacheDir, cacheDirSet = dir, true
}

// activeCacheDir returns the active disk-cache directory, or "" when the cache
// is disabled.
func activeCacheDir() string {
	cacheDirMu.Lock()
	defer cacheDirMu.Unlock()
	if cacheDirSet {
		return cacheDir
	}
	return os.Getenv(CacheDirEnv)
}

// CachePath returns the file the dataset persists to, or "" when the
// cache is disabled. The file need not exist yet.
func CachePath(name string) string {
	dir := activeCacheDir()
	if dir == "" {
		return ""
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|seed=%#x|binv=%d", name, prepareSeed, graph.BinaryVersion)
	return filepath.Join(dir, fmt.Sprintf("%s-%016x.lcg", name, h.Sum64()))
}

// loadFromDisk deserializes a previously persisted dataset. A missing,
// corrupt or stale file reports ok=false: every failure mode is a cache
// miss, never an error surfaced to Load.
func loadFromDisk(path string) (*graph.Graph, bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	st, err := graph.ReadBinaryStore(f)
	if err != nil {
		return nil, false
	}
	return graph.Materialize(st), true
}

// persistToDisk writes the prepared graph to the cache atomically (tmp +
// rename, so concurrent processes never observe a torn file) with
// compressed adjacency — roughly 2-3× smaller on disk than plain CSR, and
// the per-section checksums guard the read path either way. Persistence is
// best-effort: a full disk or read-only directory degrades to regenerating
// next time, not to a failed Load.
func persistToDisk(path string, g *graph.Graph) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return
	}
	defer os.Remove(tmp.Name())
	if err := graph.WriteBinaryStore(tmp, graph.CompressGraph(g)); err != nil {
		tmp.Close()
		return
	}
	if err := tmp.Close(); err != nil {
		return
	}
	os.Rename(tmp.Name(), path)
}
