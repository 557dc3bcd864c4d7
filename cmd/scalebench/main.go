// Command scalebench measures the storage plane at scale: it materializes
// one of the large scale-series datasets (internal/gen) through the disk
// cache and prints one JSON record of the quantities that matter for graphs
// two orders of magnitude past the golden suite — edge count, bytes on disk,
// compression ratio of the varint/delta adjacency stream against the plain
// CSR image, checksummed load wall-time, and the process's resident-set
// peak.
//
// The first run against an empty cache directory generates the dataset
// (minutes for half a billion edges) and persists it; subsequent runs are
// a single checksummed binary read, which is the load time a scale record
// is meant to pin. Generation time, when it happened, is reported
// separately and never folded into load_ns.
//
// Usage (also `make bench-scale`):
//
//	scalebench [-dataset rmat-s21-ef256] [-cache DIR] [-out scale.json]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

type scaleRecord struct {
	Date       string      `json:"date"`
	GoMaxProcs int         `json:"go_max_procs"`
	CPUModel   string      `json:"cpu_model"`
	Scale      scaleDetail `json:"scale"`
}

type scaleDetail struct {
	Dataset            string  `json:"dataset"`
	Vertices           int     `json:"vertices"`
	Edges              int     `json:"edges"`
	Arcs               int     `json:"arcs"`
	PlainAdjBytes      int64   `json:"plain_adj_bytes"`
	CompressedAdjBytes int64   `json:"compressed_adj_bytes"`
	CompressionRatio   float64 `json:"compression_ratio"`
	BytesOnDisk        int64   `json:"bytes_on_disk"`
	LoadNS             int64   `json:"load_ns"`
	GenNS              int64   `json:"gen_ns,omitempty"`
	PeakRSSBytes       int64   `json:"peak_rss_bytes"`
}

func main() {
	dataset := flag.String("dataset", "rmat-s21-ef256", "scale-series dataset name (internal/gen/scale.go)")
	cache := flag.String("cache", "", "graph cache directory (default $LCC_GRAPH_CACHE, else .graph-cache)")
	out := flag.String("out", "", "output record path (default stdout)")
	flag.Parse()

	dir := *cache
	if dir == "" {
		dir = os.Getenv(gen.CacheDirEnv)
	}
	if dir == "" {
		dir = ".graph-cache"
	}
	gen.SetCacheDir(dir)

	path := gen.CachePath(*dataset)
	if path == "" {
		fatalf("cache path for %q is empty (cache dir %q)", *dataset, dir)
	}

	var genNS int64
	if _, err := os.Stat(path); err != nil {
		fmt.Fprintf(os.Stderr, "scalebench: generating %s (first run; this takes a while)\n", *dataset)
		t0 := time.Now()
		if _, err := gen.Load(*dataset); err != nil {
			fatalf("generate %s: %v", *dataset, err)
		}
		genNS = time.Since(t0).Nanoseconds()
		if _, err := os.Stat(path); err != nil {
			fatalf("dataset generated but not persisted to %s: %v", path, err)
		}
		fmt.Fprintf(os.Stderr, "scalebench: generated and persisted in %s\n", time.Duration(genNS))
	}

	info, err := os.Stat(path)
	if err != nil {
		fatalf("stat %s: %v", path, err)
	}

	// The load measurement: one checksummed, representation-preserving
	// binary read — the path every warm scale run takes.
	t0 := time.Now()
	f, err := os.Open(path)
	if err != nil {
		fatalf("open %s: %v", path, err)
	}
	st, err := graph.ReadBinaryStore(f)
	f.Close()
	if err != nil {
		fatalf("read %s: %v", path, err)
	}
	loadNS := time.Since(t0).Nanoseconds()

	comp, ok := st.(*graph.CompressedCSR)
	if !ok {
		fatalf("cache file %s loaded as %T, want the compressed representation", path, st)
	}

	det := scaleDetail{
		Dataset:            *dataset,
		Vertices:           comp.NumVertices(),
		Edges:              comp.NumEdges(),
		Arcs:               comp.NumArcs(),
		PlainAdjBytes:      4 * int64(comp.NumArcs()),
		CompressedAdjBytes: int64(comp.Adjacency().DataBytes()),
		BytesOnDisk:        info.Size(),
		LoadNS:             loadNS,
		GenNS:              genNS,
		PeakRSSBytes:       peakRSS(),
	}
	det.CompressionRatio = comp.CompressionRatio()

	rec := scaleRecord{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Scale:      det,
	}

	buf, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		fatalf("marshal record: %v", err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}

	fmt.Fprintf(os.Stderr,
		"scalebench: %s: %d vertices, %d edges, %.1f MB on disk, adjacency %.1f%% of plain, load %s, peak RSS %.1f GB\n",
		*dataset, det.Vertices, det.Edges, float64(det.BytesOnDisk)/1e6,
		100*det.CompressionRatio, time.Duration(det.LoadNS), float64(det.PeakRSSBytes)/1e9)
}

// peakRSS reads the process's high-water resident set (VmHWM) in bytes;
// 0 when the proc interface is unavailable (non-Linux hosts).
func peakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if i := strings.IndexByte(name, ':'); i >= 0 {
				return strings.TrimSpace(name[i+1:])
			}
		}
	}
	return "unknown"
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scalebench: "+format+"\n", args...)
	os.Exit(1)
}
