package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// WriteEdgeList writes g in the whitespace-separated "src dst" text format
// used by the SNAP datasets the paper evaluates on. Undirected edges are
// written once, with the smaller endpoint first. Lines beginning with '#'
// are comments.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# kind=%s n=%d m=%d\n", g.kind, g.NumVertices(), g.NumEdges())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "%d %d\n", e.Src, e.Dst)
	}
	return bw.Flush()
}

// ReadEdgeList parses a SNAP-style edge list. Vertex ids may be sparse; they
// are compacted to 0..n-1 in first-appearance order. kind selects how edges
// are interpreted.
//
// The reader streams token by token through a fixed-size buffer, so line
// length is unbounded: files that put many edges on one line (or one huge
// line) parse in constant memory beyond the edge slice itself. A '#' or '%'
// where a number is expected skips the rest of that line as a comment.
func ReadEdgeList(r io.Reader, kind Kind) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	line := 1
	// nextUint scans past whitespace and comments to the next unsigned
	// integer. done=true at clean EOF before any digit.
	nextUint := func() (val uint64, done bool, err error) {
		for {
			b, e := br.ReadByte()
			if e == io.EOF {
				return 0, true, nil
			}
			if e != nil {
				return 0, false, e
			}
			switch {
			case b == '\n':
				line++
			case b == ' ' || b == '\t' || b == '\r' || b == '\f' || b == '\v':
			case b == '#' || b == '%':
				for {
					c, e := br.ReadByte()
					if e == io.EOF {
						return 0, true, nil
					}
					if e != nil {
						return 0, false, e
					}
					if c == '\n' {
						line++
						break
					}
				}
			case b >= '0' && b <= '9':
				val = uint64(b - '0')
				digits := 1
				for {
					c, e := br.ReadByte()
					if e == io.EOF {
						return val, false, nil
					}
					if e != nil {
						return 0, false, e
					}
					if c < '0' || c > '9' {
						if e := br.UnreadByte(); e != nil {
							return 0, false, e
						}
						return val, false, nil
					}
					digits++
					if digits > 20 || val > (^uint64(0)-uint64(c-'0'))/10 {
						return 0, false, fmt.Errorf("graph: line %d: integer overflows uint64", line)
					}
					val = val*10 + uint64(c-'0')
				}
			default:
				return 0, false, fmt.Errorf("graph: line %d: unexpected byte %q", line, b)
			}
		}
	}
	ids := make(map[uint64]V)
	intern := func(raw uint64) V {
		if v, ok := ids[raw]; ok {
			return v
		}
		v := V(len(ids))
		ids[raw] = v
		return v
	}
	var edges []Edge
	for {
		a, done, err := nextUint()
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
		b, done, err := nextUint()
		if err != nil {
			return nil, err
		}
		if done {
			return nil, fmt.Errorf("graph: line %d: dangling endpoint %d at end of input", line, a)
		}
		edges = append(edges, Edge{intern(a), intern(b)})
	}
	return Build(kind, len(ids), edges)
}

// Binary CSR container, version 2 (DESIGN.md §9):
//
//	magic    [8]byte  "LCCGRAPH"
//	version  uint32   (2)
//	kind     uint32
//	n        uint64
//	arcs     uint64
//	flags    uint32   (bit 0: offsets are uint32; bit 1: adjacency is
//	                   varint/delta; bit 2: byte-offsets are uint32)
//	nsect    uint32
//	table    nsect × { id uint32, length uint64, crc uint32 }
//	hdrcrc   uint32   (CRC-32C of every preceding byte)
//	payloads, in table order, each covered by its table CRC
//
// All fields little-endian, CRCs Castagnoli. Sections:
//
//	1  offsets       plain arc offsets, n+1 entries (uint32 iff flag bit 0)
//	2  adjacency     raw uint32 arcs, or the varint/delta stream (bit 1)
//	3  byte-offsets  varint files only: per-vertex byte offsets into the
//	                 adjacency stream, n+1 entries (uint32 iff flag bit 2)
//
// Sections are laid out exactly as their in-memory arrays, so the reader
// fills each resident array straight from the file. Version-1 files
// (unversioned sections, no checksums) are rejected with a clear error;
// cmd/graphgen rewrites them.
var binaryMagic = [8]byte{'L', 'C', 'C', 'G', 'R', 'A', 'P', 'H'}

const binaryVersion = 2

// BinaryVersion is the current version of the binary container format —
// cache keys and tooling embed it so format bumps invalidate cleanly.
const BinaryVersion = binaryVersion

const (
	flagOff32   = 1 << 0
	flagVarint  = 1 << 1
	flagByte32  = 1 << 2
	flagsKnown  = flagOff32 | flagVarint | flagByte32
	sectOffsets = 1
	sectAdj     = 2
	sectByteOff = 3
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError is returned when a binary graph file fails a checksum,
// structural, or framing check. Corrupt large files must fail loud, not
// load garbage.
type CorruptError struct {
	Section string // "header", "offsets", "adjacency", "byte-offsets"
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("graph: corrupt binary file: %s: %s", e.Section, e.Reason)
}

type sectionEntry struct {
	id     uint32
	length uint64
	crc    uint32
}

type binHeader struct {
	kind  Kind
	n     int
	arcs  int
	flags uint32
	sects []sectionEntry
}

func (h *binHeader) offWidth() int {
	if h.flags&flagOff32 != 0 {
		return 4
	}
	return 8
}

func (h *binHeader) byteOffWidth() int {
	if h.flags&flagByte32 != 0 {
		return 4
	}
	return 8
}

func (h *binHeader) encode() []byte {
	buf := make([]byte, 0, 40+16*len(h.sects)+4)
	buf = append(buf, binaryMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, binaryVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.kind))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.arcs))
	buf = binary.LittleEndian.AppendUint32(buf, h.flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(h.sects)))
	for _, s := range h.sects {
		buf = binary.LittleEndian.AppendUint32(buf, s.id)
		buf = binary.LittleEndian.AppendUint64(buf, s.length)
		buf = binary.LittleEndian.AppendUint32(buf, s.crc)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return buf
}

// maxSectionBytes bounds any single section so a corrupted length field
// cannot drive a huge allocation before its checksum is ever verified.
const maxSectionBytes = 1 << 38

func decodeBinHeader(r io.Reader) (*binHeader, error) {
	head := make([]byte, 40)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, &CorruptError{Section: "header", Reason: fmt.Sprintf("short read: %v", err)}
	}
	if *(*[8]byte)(head[:8]) != binaryMagic {
		return nil, &CorruptError{Section: "header", Reason: fmt.Sprintf("bad magic %q", head[:8])}
	}
	if v := binary.LittleEndian.Uint32(head[8:]); v != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported binary version %d (want %d; regenerate with cmd/graphgen)", v, binaryVersion)
	}
	h := &binHeader{
		kind:  Kind(binary.LittleEndian.Uint32(head[12:])),
		n:     int(binary.LittleEndian.Uint64(head[16:])),
		arcs:  int(binary.LittleEndian.Uint64(head[24:])),
		flags: binary.LittleEndian.Uint32(head[32:]),
	}
	nsect := binary.LittleEndian.Uint32(head[36:])
	if h.kind != Undirected && h.kind != Directed {
		return nil, &CorruptError{Section: "header", Reason: fmt.Sprintf("bad kind %d", h.kind)}
	}
	const maxReasonable = 1 << 34
	if h.n < 0 || h.arcs < 0 || h.n > maxReasonable || h.arcs > maxSectionBytes/4 {
		return nil, &CorruptError{Section: "header", Reason: fmt.Sprintf("implausible sizes n=%d arcs=%d", h.n, h.arcs)}
	}
	if h.flags&^uint32(flagsKnown) != 0 {
		return nil, &CorruptError{Section: "header", Reason: fmt.Sprintf("unknown flags %#x", h.flags)}
	}
	if nsect > 16 {
		return nil, &CorruptError{Section: "header", Reason: fmt.Sprintf("implausible section count %d", nsect)}
	}
	table := make([]byte, 16*nsect+4)
	if _, err := io.ReadFull(r, table); err != nil {
		return nil, &CorruptError{Section: "header", Reason: fmt.Sprintf("short section table: %v", err)}
	}
	crc := crc32.Checksum(head, castagnoli)
	crc = crc32.Update(crc, castagnoli, table[:len(table)-4])
	if got := binary.LittleEndian.Uint32(table[len(table)-4:]); got != crc {
		return nil, &CorruptError{Section: "header", Reason: fmt.Sprintf("checksum mismatch (stored %#x, computed %#x)", got, crc)}
	}
	h.sects = make([]sectionEntry, nsect)
	for i := range h.sects {
		h.sects[i] = sectionEntry{
			id:     binary.LittleEndian.Uint32(table[16*i:]),
			length: binary.LittleEndian.Uint64(table[16*i+4:]),
			crc:    binary.LittleEndian.Uint32(table[16*i+12:]),
		}
		if h.sects[i].length > maxSectionBytes {
			return nil, &CorruptError{Section: "header", Reason: fmt.Sprintf("section %d implausibly large (%d bytes)", h.sects[i].id, h.sects[i].length)}
		}
	}
	// Exactly the sections the flags call for, in canonical order.
	want := []uint32{sectOffsets, sectAdj}
	if h.flags&flagVarint != 0 {
		want = append(want, sectByteOff)
	}
	if len(h.sects) != len(want) {
		return nil, &CorruptError{Section: "header", Reason: fmt.Sprintf("want %d sections, have %d", len(want), len(h.sects))}
	}
	for i, id := range want {
		if h.sects[i].id != id {
			return nil, &CorruptError{Section: "header", Reason: fmt.Sprintf("section %d has id %d, want %d", i, h.sects[i].id, id)}
		}
	}
	if got, want := h.sects[0].length, uint64(h.n+1)*uint64(h.offWidth()); got != want {
		return nil, &CorruptError{Section: "offsets", Reason: fmt.Sprintf("length %d, want %d", got, want)}
	}
	if h.flags&flagVarint == 0 {
		if got, want := h.sects[1].length, uint64(h.arcs)*4; got != want {
			return nil, &CorruptError{Section: "adjacency", Reason: fmt.Sprintf("length %d, want %d", got, want)}
		}
	} else if got, want := h.sects[2].length, uint64(h.n+1)*uint64(h.byteOffWidth()); got != want {
		return nil, &CorruptError{Section: "byte-offsets", Reason: fmt.Sprintf("length %d, want %d", got, want)}
	}
	return h, nil
}

func sectionName(id uint32) string {
	switch id {
	case sectOffsets:
		return "offsets"
	case sectAdj:
		return "adjacency"
	case sectByteOff:
		return "byte-offsets"
	}
	return fmt.Sprintf("section-%d", id)
}

// readChunk bounds one read of a section: small enough that the chunk is
// still in cache when it is folded into the section's CRC.
const readChunk = 256 << 10

// sectionReader reads one section's payload in pieces, folding every chunk
// into the section's CRC-32C as it lands.
type sectionReader struct {
	r   io.Reader
	s   sectionEntry
	crc uint32
}

// fill reads the next len(dst) bytes of the payload into dst.
func (sr *sectionReader) fill(dst []byte) error {
	for len(dst) > 0 {
		chunk := dst[:min(len(dst), readChunk)]
		if _, err := io.ReadFull(sr.r, chunk); err != nil {
			return &CorruptError{Section: sectionName(sr.s.id), Reason: fmt.Sprintf("short read: %v", err)}
		}
		sr.crc = crc32.Update(sr.crc, castagnoli, chunk)
		dst = dst[len(chunk):]
	}
	return nil
}

// verify compares the CRC of everything filled with the section table's.
func (sr *sectionReader) verify() error {
	if sr.crc != sr.s.crc {
		return &CorruptError{Section: sectionName(sr.s.id), Reason: fmt.Sprintf("checksum mismatch (stored %#x, computed %#x)", sr.s.crc, sr.crc)}
	}
	return nil
}

// readBytes fills dst with section s's payload and verifies its checksum.
func readBytes(r io.Reader, s sectionEntry, dst []byte) error {
	sr := sectionReader{r: r, s: s}
	if err := sr.fill(dst); err != nil {
		return err
	}
	return sr.verify()
}

// readArray fills a — the resident array itself, never a staged copy of the
// section — with section s's payload and verifies its checksum: straight
// from the reader where a's memory is its byte image, one decoded chunk at
// a time elsewhere.
func readArray[T uint32 | uint64](r io.Reader, s sectionEntry, a []T) error {
	if b, ok := leView(a); ok || len(a) == 0 {
		return readBytes(r, s, b)
	}
	sr := sectionReader{r: r, s: s}
	size := int(s.length) / len(a)
	stage := make([]byte, min(readChunk, int(s.length)))
	for rest := a; len(rest) > 0; {
		chunk := stage[:min(len(stage), size*len(rest))]
		if err := sr.fill(chunk); err != nil {
			return err
		}
		decodeLE(rest, chunk)
		rest = rest[len(chunk)/size:]
	}
	return sr.verify()
}

// readOffsets reads an offsets section of n+1 entries in the width its flag
// selects and checks that the entries start at 0, never decrease and end at
// end: every reader of a store slices by them unchecked.
func readOffsets(r io.Reader, s sectionEntry, n int, is32 bool, end uint64) (o32 []uint32, o64 []uint64, err error) {
	if is32 {
		o32 = make([]uint32, n+1)
		if err = readArray(r, s, o32); err == nil {
			err = checkOffsets(s, o32, end)
		}
	} else {
		o64 = make([]uint64, n+1)
		if err = readArray(r, s, o64); err == nil {
			err = checkOffsets(s, o64, end)
		}
	}
	return o32, o64, err
}

func checkOffsets[T uint32 | uint64](s sectionEntry, off []T, end uint64) error {
	if off[0] != 0 {
		return &CorruptError{Section: sectionName(s.id), Reason: fmt.Sprintf("first entry %d, want 0", off[0])}
	}
	for i := 1; i < len(off); i++ {
		if off[i-1] > off[i] {
			return &CorruptError{Section: sectionName(s.id), Reason: fmt.Sprintf("not monotone at %d", i-1)}
		}
	}
	if last := uint64(off[len(off)-1]); last != end {
		return &CorruptError{Section: sectionName(s.id), Reason: fmt.Sprintf("last entry %d, want %d", last, end)}
	}
	return nil
}

// WriteBinary serializes g in the raw (uncompressed) binary container
// format, with 32-bit offsets when the arc count permits.
func WriteBinary(w io.Writer, g *Graph) error {
	return WriteBinaryStore(w, g)
}

// WriteBinaryStore serializes any Store. The on-disk adjacency encoding
// follows the representation: a *CompressedCSR writes its varint/delta
// stream verbatim (no re-encode), everything else writes the raw plain
// image. Offset arrays are written 32-bit whenever their values fit.
func WriteBinaryStore(w io.Writer, st Store) error {
	if c, ok := st.(*CompressedCSR); ok {
		ca := c.ca
		h := &binHeader{kind: c.kind, n: c.NumVertices(), arcs: c.NumArcs(), flags: flagVarint}
		offPayload, boPayload := LEBytes(ca.po64), LEBytes(ca.bo64)
		if ca.po32 != nil {
			h.flags |= flagOff32
			offPayload = LEBytes(ca.po32)
		}
		if ca.bo32 != nil {
			h.flags |= flagByte32
			boPayload = LEBytes(ca.bo32)
		}
		return writePayloads(w, h, offPayload, ca.data, boPayload)
	}
	g := Materialize(st)
	h := &binHeader{kind: g.kind, n: g.NumVertices(), arcs: g.NumArcs()}
	offPayload := LEBytes(g.offsets)
	if g.offsets[h.n] < 1<<32 {
		h.flags |= flagOff32
		off32 := make([]uint32, len(g.offsets))
		for i, o := range g.offsets {
			off32[i] = uint32(o)
		}
		offPayload = LEBytes(off32)
	}
	return writePayloads(w, h, offPayload, LEBytes(g.adj))
}

// writePayloads writes the header and then the sections, given in canonical
// order, each straight from the bytes it was checksummed over.
func writePayloads(w io.Writer, h *binHeader, payloads ...[]byte) error {
	ids := [...]uint32{sectOffsets, sectAdj, sectByteOff}
	for i, p := range payloads {
		h.sects = append(h.sects, sectionEntry{id: ids[i], length: uint64(len(p)), crc: crc32.Checksum(p, castagnoli)})
	}
	if _, err := w.Write(h.encode()); err != nil {
		return err
	}
	for _, p := range payloads {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// ReadBinary deserializes a graph written by WriteBinary/WriteBinaryStore
// into a plain in-RAM *Graph, decoding compressed files eagerly, after every
// check of ReadBinaryStore; failures return a *CorruptError. For a
// representation-preserving load use ReadBinaryStore.
func ReadBinary(r io.Reader) (*Graph, error) {
	st, err := ReadBinaryStore(r)
	if err != nil {
		return nil, err
	}
	return Materialize(st), nil
}

// ReadBinaryStore deserializes a binary graph file into the resident
// representation it was written in: raw files load as *Graph, varint files
// as *CompressedCSR (the stream is adopted verbatim, never inflated). Every
// resident array is allocated once and filled from r chunk by chunk
// (readArray), so the read's peak is one copy of the container. No store is
// returned unless the header and every section match their checksums, both
// offset arrays start at 0, never decrease and end where they must, and
// the adjacency passes the checks of ValidateQuick: raw files directly,
// varint files through one decode of every list (validate). Those checks
// run on every core once the section's checksum has verified, and report
// what one pass from vertex 0 would (checkSpans).
func ReadBinaryStore(r io.Reader) (Store, error) {
	h, err := decodeBinHeader(r)
	if err != nil {
		return nil, err
	}
	po32, po64, err := readOffsets(r, h.sects[0], h.n, h.flags&flagOff32 != 0, uint64(h.arcs))
	if err != nil {
		return nil, err
	}
	if h.flags&flagVarint == 0 {
		if po32 != nil {
			po64 = make([]uint64, len(po32))
			for i, o := range po32 {
				po64[i] = uint64(o)
			}
		}
		g := &Graph{kind: h.kind, offsets: po64, adj: make([]V, h.arcs)}
		if err := readArray(r, h.sects[1], g.adj); err != nil {
			return nil, err
		}
		if err := g.ValidateQuick(); err != nil {
			return nil, &CorruptError{Section: "adjacency", Reason: err.Error()}
		}
		return g, nil
	}
	ca := &CompressedAdj{lists: h.n, po32: po32, po64: po64, data: make([]byte, h.sects[1].length)}
	if err := readBytes(r, h.sects[1], ca.data); err != nil {
		return nil, err
	}
	ca.bo32, ca.bo64, err = readOffsets(r, h.sects[2], h.n, h.flags&flagByte32 != 0, h.sects[1].length)
	if err != nil {
		return nil, err
	}
	if err := ca.validate(); err != nil {
		return nil, &CorruptError{Section: "adjacency", Reason: err.Error()}
	}
	return &CompressedCSR{kind: h.kind, ca: ca}, nil
}
