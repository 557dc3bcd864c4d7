package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// FileCSR is a lazy, file-backed Store over a version-2 binary graph file.
// OpenBinary maps the file read-only (mmap on platforms that have it, a
// one-shot buffered read elsewhere) and serves adjacency reads straight
// from the mapped sections — the "mmap-style streaming" load mode: opening
// a graph costs one sequential checksum pass instead of an eager decode,
// and cold lists are paged in on first touch by the OS rather than held
// resident.
type FileCSR struct {
	path    string
	size    int64
	mapped  []byte
	unmap   func() error
	kind    Kind
	n       int
	arcs    int
	flags   uint32
	offSect []byte // raw offsets payload (width per flags)
	adjSect []byte // raw u32 arcs, or the varint stream
	boSect  []byte // varint files only
}

// OpenBinary opens a binary graph file as a lazy file-backed Store. The
// header and every section checksum are verified up front (one sequential
// pass over the mapping) and the offsets array is checked for monotonicity,
// so later reads cannot wander out of bounds; per-list contents are decoded
// on access. Close releases the mapping.
func OpenBinary(path string) (*FileCSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	mapped, unmap, err := mmapFile(f, info.Size())
	if err != nil {
		return nil, fmt.Errorf("graph: mapping %s: %w", path, err)
	}
	fc := &FileCSR{path: path, size: info.Size(), mapped: mapped, unmap: unmap}
	if err := fc.init(); err != nil {
		unmap()
		return nil, err
	}
	return fc, nil
}

func (fc *FileCSR) init() error {
	h, err := decodeBinHeader(bytes.NewReader(fc.mapped))
	if err != nil {
		return err
	}
	fc.kind, fc.n, fc.arcs, fc.flags = h.kind, h.n, h.arcs, h.flags
	pos := uint64(40 + 16*len(h.sects) + 4)
	for _, s := range h.sects {
		if pos+s.length > uint64(len(fc.mapped)) {
			return &CorruptError{Section: sectionName(s.id), Reason: "section extends past end of file"}
		}
		payload := fc.mapped[pos : pos+s.length]
		if got := crc32.Checksum(payload, castagnoli); got != s.crc {
			return &CorruptError{Section: sectionName(s.id), Reason: fmt.Sprintf("checksum mismatch (stored %#x, computed %#x)", s.crc, got)}
		}
		switch s.id {
		case sectOffsets:
			fc.offSect = payload
		case sectAdj:
			fc.adjSect = payload
		case sectByteOff:
			fc.boSect = payload
		}
		pos += s.length
	}
	last := uint64(0)
	for i := 0; i <= fc.n; i++ {
		o := fc.offAt(i)
		if o < last {
			return &CorruptError{Section: "offsets", Reason: fmt.Sprintf("not monotone at %d", i)}
		}
		last = o
	}
	if last != uint64(fc.arcs) {
		return &CorruptError{Section: "offsets", Reason: fmt.Sprintf("offsets[n] = %d, want arcs = %d", last, fc.arcs)}
	}
	if fc.boSect != nil {
		last = 0
		for i := 0; i <= fc.n; i++ {
			o := fc.byteOffAt(i)
			if o < last {
				return &CorruptError{Section: "byte-offsets", Reason: fmt.Sprintf("not monotone at %d", i)}
			}
			last = o
		}
		if last != uint64(len(fc.adjSect)) {
			return &CorruptError{Section: "byte-offsets", Reason: fmt.Sprintf("byte-offsets[n] = %d, want stream length %d", last, len(fc.adjSect))}
		}
	}
	return nil
}

// Close releases the file mapping. Adjacency views handed out earlier must
// not be used afterwards.
func (fc *FileCSR) Close() error {
	if fc.unmap == nil {
		return nil
	}
	u := fc.unmap
	fc.unmap, fc.mapped, fc.offSect, fc.adjSect, fc.boSect = nil, nil, nil, nil, nil
	return u()
}

func (fc *FileCSR) offAt(i int) uint64 {
	if fc.flags&flagOff32 != 0 {
		return uint64(binary.LittleEndian.Uint32(fc.offSect[4*i:]))
	}
	return binary.LittleEndian.Uint64(fc.offSect[8*i:])
}

func (fc *FileCSR) byteOffAt(i int) uint64 {
	if fc.flags&flagByte32 != 0 {
		return uint64(binary.LittleEndian.Uint32(fc.boSect[4*i:]))
	}
	return binary.LittleEndian.Uint64(fc.boSect[8*i:])
}

// Kind reports whether the graph is directed or undirected.
func (fc *FileCSR) Kind() Kind { return fc.kind }

// NumVertices returns n.
func (fc *FileCSR) NumVertices() int { return fc.n }

// NumArcs returns the number of stored adjacency entries.
func (fc *FileCSR) NumArcs() int { return fc.arcs }

// NumEdges returns m (an undirected edge counts once).
func (fc *FileCSR) NumEdges() int {
	if fc.kind == Undirected {
		return fc.arcs / 2
	}
	return fc.arcs
}

// OutDegree returns deg+(v) from the mapped offsets section.
func (fc *FileCSR) OutDegree(v V) int {
	return int(fc.offAt(int(v)+1) - fc.offAt(int(v)))
}

// AdjInto decodes the adjacency list of v from the mapped file into buf.
func (fc *FileCSR) AdjInto(v V, buf []V) []V {
	deg := fc.OutDegree(v)
	if deg == 0 {
		return buf[:0]
	}
	if cap(buf) < deg {
		buf = make([]V, deg)
	}
	buf = buf[:deg]
	if fc.flags&flagVarint != 0 {
		section := fc.adjSect[fc.byteOffAt(int(v)):fc.byteOffAt(int(v)+1)]
		out, n, ok := decodeDeltaList(section, deg, buf)
		if !ok || n != len(section) {
			panic(fmt.Sprintf("graph: corrupt varint adjacency in list %d of %s", v, fc.path))
		}
		return out
	}
	start := fc.offAt(int(v))
	for i := 0; i < deg; i++ {
		buf[i] = binary.LittleEndian.Uint32(fc.adjSect[4*(start+uint64(i)):])
	}
	return buf
}

// MemBytes returns 0: the mapping is file-backed and its pages are
// reclaimable, which is the entire point of the representation.
func (fc *FileCSR) MemBytes() int64 { return 0 }

// DiskBytes returns the on-disk size of the backing file.
func (fc *FileCSR) DiskBytes() int64 { return fc.size }

// Path returns the backing file's path.
func (fc *FileCSR) Path() string { return fc.path }

// ReprName identifies the file-backed representation.
func (fc *FileCSR) ReprName() string { return "file" }
