package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"
)

// randomStoreGraph builds a moderately skewed random graph for the storage
// tests: enough vertices to exercise varint widths, hubs for dense runs.
func randomStoreGraph(t testing.TB, n, m int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u := V(rng.Intn(n))
		var v V
		if rng.Intn(4) == 0 {
			v = V(rng.Intn(n / 16)) // hub-biased endpoint
		} else {
			v = V(rng.Intn(n))
		}
		if u != v {
			edges = append(edges, Edge{u, v})
		}
	}
	g, err := Build(Undirected, n, edges)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// sameStore asserts st serves exactly g's adjacency through the Store
// contract.
func sameStore(t *testing.T, g *Graph, st Store) {
	t.Helper()
	if st.Kind() != g.Kind() || st.NumVertices() != g.NumVertices() ||
		st.NumArcs() != g.NumArcs() || st.NumEdges() != g.NumEdges() {
		t.Fatalf("%T: shape mismatch: kind=%v n=%d arcs=%d edges=%d, want %v/%d/%d/%d",
			st, st.Kind(), st.NumVertices(), st.NumArcs(), st.NumEdges(),
			g.Kind(), g.NumVertices(), g.NumArcs(), g.NumEdges())
	}
	var buf []V
	for v := 0; v < g.NumVertices(); v++ {
		if d := st.OutDegree(V(v)); d != g.OutDegree(V(v)) {
			t.Fatalf("%T: OutDegree(%d) = %d, want %d", st, v, d, g.OutDegree(V(v)))
		}
		buf = st.AdjInto(V(v), buf)
		want := g.Adj(V(v))
		if len(buf) != len(want) {
			t.Fatalf("%T: AdjInto(%d) returned %d elements, want %d", st, v, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("%T: AdjInto(%d)[%d] = %d, want %d", st, v, i, buf[i], want[i])
			}
		}
	}
}

func TestCompressedCSRMatchesPlain(t *testing.T) {
	g := randomStoreGraph(t, 2000, 12000, 1)
	c := CompressGraph(g)
	sameStore(t, g, c)
	if c.ca.DataBytes() >= c.ca.PlainBytes() {
		t.Errorf("compressed stream %d bytes, plain %d: no compression on a skewed graph",
			c.ca.DataBytes(), c.ca.PlainBytes())
	}
	if got := Materialize(c); got.NumArcs() != g.NumArcs() {
		t.Fatalf("Materialize arcs = %d, want %d", got.NumArcs(), g.NumArcs())
	} else if err := got.Validate(); err != nil {
		t.Fatalf("materialized graph invalid: %v", err)
	}
}

func TestCompressedAdjDecodeAt(t *testing.T) {
	g := randomStoreGraph(t, 300, 2000, 2)
	ca := CompressGraph(g).Adjacency()
	var buf []V
	for v := 0; v < g.NumVertices(); v++ {
		start := int(g.Offsets()[v])
		deg := g.OutDegree(V(v))
		buf = ca.DecodeAt(start*4, deg*4, buf)
		want := g.Adj(V(v))
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("DecodeAt(%d): element %d = %d, want %d", v, i, buf[i], want[i])
			}
		}
	}
	// Isolated vertices: an empty list shares its plain offset with the
	// next non-empty one, which must still decode, as must the empty read.
	sparse, err := Build(Undirected, 12, []Edge{{3, 7}, {7, 8}, {8, 11}})
	if err != nil {
		t.Fatal(err)
	}
	sca := CompressGraph(sparse).Adjacency()
	for v := 0; v < sparse.NumVertices(); v++ {
		want := sparse.Adj(V(v))
		buf = sca.DecodeAt(int(sparse.Offsets()[v])*4, len(want)*4, buf)
		if len(buf) != len(want) {
			t.Fatalf("sparse DecodeAt(%d) = %v, want %v", v, buf, want)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("sparse DecodeAt(%d) = %v, want %v", v, buf, want)
			}
		}
	}
	// Partial-run and misaligned reads must panic: the engines fetch whole
	// vertex runs only, and anything else would leak representation.
	for _, bad := range [][2]int{{2, 4}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DecodeAt(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			ca.DecodeAt(bad[0], bad[1], nil)
		}()
	}
}

func TestBinaryStoreRoundTripCompressed(t *testing.T) {
	g := randomStoreGraph(t, 1500, 9000, 3)
	c := CompressGraph(g)
	var buf bytes.Buffer
	if err := WriteBinaryStore(&buf, c); err != nil {
		t.Fatalf("WriteBinaryStore: %v", err)
	}
	st, err := ReadBinaryStore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBinaryStore: %v", err)
	}
	if _, ok := st.(*CompressedCSR); !ok {
		t.Fatalf("round-trip representation = %T, want *CompressedCSR", st)
	}
	sameStore(t, g, st)
	// The eager reader decodes the same file to a plain graph.
	g2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBinary(compressed file): %v", err)
	}
	sameStore(t, g, g2)
}

func TestBinaryCorruptSectionsFailTyped(t *testing.T) {
	g := randomStoreGraph(t, 400, 2500, 5)
	for _, st := range []Store{g, CompressGraph(g)} {
		var buf bytes.Buffer
		if err := WriteBinaryStore(&buf, st); err != nil {
			t.Fatal(err)
		}
		clean := buf.Bytes()
		// Flip one byte at a spread of positions: header, table, payloads.
		for _, pos := range []int{9, 20, 45, 80, len(clean) / 2, len(clean) - 3} {
			bad := append([]byte(nil), clean...)
			bad[pos] ^= 0x40
			_, err := ReadBinaryStore(bytes.NewReader(bad))
			if err == nil {
				t.Fatalf("%T: corruption at byte %d loaded silently", st, pos)
			}
			var ce *CorruptError
			if !errors.As(err, &ce) && pos != 9 {
				// Byte 9 flips the version field, which reports a plain
				// unsupported-version error by design.
				t.Errorf("%T: corruption at byte %d: error %v is not a *CorruptError", st, pos, err)
			}
		}
		// Truncation fails loud too.
		_, err := ReadBinaryStore(bytes.NewReader(clean[:len(clean)-10]))
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%T: truncated file: error %v is not a *CorruptError", st, err)
		}
	}

	// A container whose adjacency section spans more than two read chunks:
	// damage inside every chunk, and a cut at every section boundary and
	// mid-chunk, must name the section it lands in.
	big := randomStoreGraph(t, 60000, 300000, 9)
	for _, st := range []Store{big, CompressGraph(big)} {
		var buf bytes.Buffer
		if err := WriteBinaryStore(&buf, st); err != nil {
			t.Fatal(err)
		}
		clean := buf.Bytes()
		h, err := decodeBinHeader(bytes.NewReader(clean))
		if err != nil {
			t.Fatal(err)
		}
		wantSection := func(what string, data []byte, want string) {
			t.Helper()
			_, err := ReadBinaryStore(bytes.NewReader(data))
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Section != want {
				t.Errorf("%T: %s: got %v, want a *CorruptError in %q", st, what, err, want)
			}
		}
		flip := func(pos int) []byte {
			bad := append([]byte(nil), clean...)
			bad[pos] ^= 0x40
			return bad
		}
		start := 40 + 16*len(h.sects) + 4
		wantSection("cut inside the header", clean[:start-2], "header")
		for _, s := range h.sects {
			name, length := sectionName(s.id), int(s.length)
			if s.id == sectAdj && length <= 2*readChunk {
				t.Fatalf("%T: adjacency section is %d bytes, want more than two read chunks", st, length)
			}
			wantSection("cut at the start of "+name, clean[:start], name)
			for off := 0; off < length; off += readChunk {
				mid := start + off + min(readChunk, length-off)/2
				wantSection("flip inside "+name, flip(mid), name)
				wantSection("cut inside "+name, clean[:mid], name)
			}
			wantSection("flip at the end of "+name, flip(start+length-1), name)
			start += length
		}
		if start != len(clean) {
			t.Fatalf("%T: sections end at %d, container is %d bytes", st, start, len(clean))
		}
	}
}

// TestReadBinaryStoreRejectsNonMonotoneOffsets: a container can carry valid
// checksums over plain arc offsets that decrease or do not start at 0.
// Every reader slices by them unchecked — Materialize of such a varint store
// used to panic in the list after the swap, or size its arcs by a first
// entry alone — so no store is returned from one.
func TestReadBinaryStoreRejectsNonMonotoneOffsets(t *testing.T) {
	g := ringGraph(6)

	swapped32 := CompressGraph(g)
	po := swapped32.ca.po32
	po[2], po[3] = po[3], po[2]

	decreasing64 := CompressGraph(g)
	ca := decreasing64.ca
	ca.po64 = make([]uint64, len(ca.po32))
	for i, o := range ca.po32 {
		ca.po64[i] = uint64(o)
	}
	ca.po32 = nil
	ca.po64[4] = ca.po64[3] - 1

	shifted := CompressGraph(g)
	shifted.ca.po32[0] = 1

	var raw64 bytes.Buffer
	off := append([]uint64(nil), g.offsets...)
	off[2], off[3] = off[3], off[2]
	h := &binHeader{kind: g.kind, n: g.NumVertices(), arcs: g.NumArcs()}
	if err := writePayloads(&raw64, h, LEBytes(off), LEBytes(g.adj)); err != nil {
		t.Fatal(err)
	}

	containers := map[string][]byte{"raw, 64-bit offsets swapped": raw64.Bytes()}
	for name, c := range map[string]*CompressedCSR{"varint, 32-bit offsets swapped": swapped32, "varint, 64-bit offset decreasing": decreasing64, "varint, first offset 1": shifted} {
		var buf bytes.Buffer
		if err := WriteBinaryStore(&buf, c); err != nil {
			t.Fatal(err)
		}
		containers[name] = buf.Bytes()
	}
	for name, data := range containers {
		st, err := ReadBinaryStore(bytes.NewReader(data))
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Section != "offsets" {
			t.Errorf("%s: got %T, error %v; want a *CorruptError in \"offsets\"", name, st, err)
		}
	}
}

// ringGraph is the undirected n-cycle: vertex n-1's list is {0, n-2}.
func ringGraph(n int) *Graph {
	ring := make([]Edge, n)
	for i := range ring {
		ring[i] = Edge{V(i), V((i + 1) % n)}
	}
	return MustBuild(Undirected, n, ring)
}

// malformedVarint returns ring(6) in the varint encoding four ways its
// checksums cannot catch: a continuation bit on the first stream byte, a
// byte after the last list, an id n, and a self-loop.
func malformedVarint() map[string]*CompressedCSR {
	g := ringGraph(6)
	withLast := func(list ...V) *CompressedCSR {
		ca := NewCompressedAdj(g.offsets, func(i int, _ []V) []V {
			if i == 5 {
				return list
			}
			return g.Adj(V(i))
		})
		return &CompressedCSR{kind: g.kind, ca: ca}
	}
	continued := CompressGraph(g)
	continued.ca.data[0] |= 0x80
	trailing := CompressGraph(g)
	trailing.ca.data = append(trailing.ca.data, 0)
	trailing.ca.bo32[6]++
	return map[string]*CompressedCSR{
		"continuation bit on the first byte": continued,
		"byte after the last list":           trailing,
		"id n in the last list":              withLast(0, 6),
		"self-loop in the last list":         withLast(4, 5),
	}
}

// TestReadBinaryStoreRejectsMalformedVarint: the checksums cover a varint
// stream's bytes, not whether its lists decode. Materialize of such a store
// used to panic inside gen.Load's sync.Once, which then served (nil, nil)
// for the rest of the process, so no store is returned from one.
func TestReadBinaryStoreRejectsMalformedVarint(t *testing.T) {
	for name, c := range malformedVarint() {
		var buf bytes.Buffer
		if err := WriteBinaryStore(&buf, c); err != nil {
			t.Fatal(err)
		}
		st, err := ReadBinaryStore(bytes.NewReader(buf.Bytes()))
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Section != "adjacency" {
			t.Errorf("%s: got %T, error %v; want a *CorruptError in \"adjacency\"", name, st, err)
		}
	}
}

// TestMaterializeDecodesInPlace: a compressed store materializes into the
// two arrays of the plain graph and nothing per vertex.
func TestMaterializeDecodesInPlace(t *testing.T) {
	g := randomStoreGraph(t, 2000, 12000, 8)
	c := CompressGraph(g)
	sameStore(t, g, Materialize(c))
	if allocs := testing.AllocsPerRun(5, func() { Materialize(c) }); allocs > 4 {
		t.Errorf("Materialize of a compressed %d-vertex store: %.0f allocations, want a small constant", g.NumVertices(), allocs)
	}
	// A store that hands back its own memory instead of filling buf is
	// still copied whole.
	sameStore(t, g, Materialize(struct{ Store }{g}))
}

// TestReadBinaryStoreSingleCopy: reading a raw container allocates its two
// resident arrays and little else — no second image of the adjacency
// section is ever held.
func TestReadBinaryStoreSingleCopy(t *testing.T) {
	g := randomStoreGraph(t, 60000, 300000, 10)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := ReadBinaryStore(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	budget := uint64(4*g.NumArcs()+8*(g.NumVertices()+1)) + 1<<20
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("reading a %d-byte container allocated %d bytes, budget %d (one copy of each resident array + 1 MiB)", buf.Len(), got, budget)
	}
	sameStore(t, g, st)
}

// TestPortableBytesMatchByteView holds the encode/decode fallback to the
// byte view: the same container bytes written, the same store read back
// from them, the same checksums over the resident arrays.
func TestPortableBytesMatchByteView(t *testing.T) {
	if portableBytes {
		t.Skip("this host has no byte view to compare with")
	}
	defer func() { portableBytes = false }()
	g := randomStoreGraph(t, 70000, 150000, 11) // both sections over one read chunk
	for _, st := range []Store{g, CompressGraph(g)} {
		var images [2][]byte
		var sums [2]uint32
		for i, portable := range []bool{false, true} {
			portableBytes = portable
			var buf bytes.Buffer
			if err := WriteBinaryStore(&buf, st); err != nil {
				t.Fatal(err)
			}
			images[i] = buf.Bytes()
			if c, ok := st.(*CompressedCSR); ok {
				sums[i] = c.ca.Checksum(0, castagnoli)
			} else {
				sums[i] = crc32.Update(crc32.Checksum(LEBytes(g.offsets), castagnoli), castagnoli, LEBytes(g.adj))
			}
		}
		if !bytes.Equal(images[0], images[1]) {
			t.Fatalf("%T: the fallback writes a different container than the byte view", st)
		}
		if sums[0] != sums[1] {
			t.Errorf("%T: checksum %08x through the byte view, %08x through the fallback", st, sums[0], sums[1])
		}
		for _, portable := range []bool{false, true} {
			portableBytes = portable
			back, err := ReadBinaryStore(bytes.NewReader(images[0]))
			if err != nil {
				t.Fatalf("%T: read with portable=%v: %v", st, portable, err)
			}
			if fmt.Sprintf("%T", back) != fmt.Sprintf("%T", st) {
				t.Fatalf("%T: read back as %T", st, back)
			}
			sameStore(t, g, back)
			bad := append([]byte(nil), images[0]...)
			bad[len(bad)/2] ^= 1
			if _, err := ReadBinaryStore(bytes.NewReader(bad)); err == nil {
				t.Errorf("%T: portable=%v: damaged container loaded silently", st, portable)
			}
		}
	}
}

func TestReadBinaryRejectsVersion1(t *testing.T) {
	old := append([]byte("LCCGRAPH"), make([]byte, 40)...)
	old[8] = 1 // version field
	_, err := ReadBinary(bytes.NewReader(old))
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("version")) {
		t.Fatalf("version-1 file: got %v, want unsupported-version error", err)
	}
}

func TestReadEdgeListStreamsLongLines(t *testing.T) {
	// One line far beyond any scanner token limit: 400k edges, no newlines.
	var buf bytes.Buffer
	n := 2000
	for i := 0; i < 400000; i++ {
		fmtInt(&buf, uint64(i%n))
		buf.WriteByte(' ')
		fmtInt(&buf, uint64((i+7)%n))
		buf.WriteByte(' ')
	}
	g, err := ReadEdgeList(&buf, Undirected)
	if err != nil {
		t.Fatalf("ReadEdgeList on a single %d-byte line: %v", buf.Len(), err)
	}
	if g.NumVertices() != n {
		t.Fatalf("n = %d, want %d", g.NumVertices(), n)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func fmtInt(buf *bytes.Buffer, x uint64) {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + x%10)
		x /= 10
		if x == 0 {
			break
		}
	}
	buf.Write(tmp[i:])
}

func TestReadEdgeListDanglingEndpoint(t *testing.T) {
	_, err := ReadEdgeList(bytes.NewReader([]byte("0 1\n2")), Undirected)
	if err == nil {
		t.Fatal("odd token count parsed silently")
	}
}

// FuzzVarintAdjacency fuzzes both directions of the varint/delta codec:
// encoded lists round-trip exactly, and the decoder, fed arbitrary bytes,
// never reads past its section and never accepts a malformed stream as a
// full-length list of the wrong width.
func FuzzVarintAdjacency(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00}, uint16(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, uint16(1))
	f.Add([]byte{0x80}, uint16(1))
	f.Add([]byte{}, uint16(0))
	// Direction 4's empty-list seed: deg 1 cuts the ids into one-id lists
	// with an empty list before each — lists that start where one ended.
	f.Add([]byte{5, 0, 9, 200, 1}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, degRaw uint16) {
		deg := int(degRaw%512) + 1
		// Direction 1: decode arbitrary bytes — must stay in bounds and,
		// on success, consume only bytes it reports.
		list, n, ok := decodeDeltaList(data, deg, nil)
		if n < 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		if ok {
			if len(list) != deg {
				t.Fatalf("ok decode returned %d elements, want %d", len(list), deg)
			}
			for i := 1; i < deg; i++ {
				if list[i] <= list[i-1] {
					t.Fatalf("decoded list not strictly increasing at %d", i)
				}
			}
			// Direction 2: re-encode decodes back to the same list. (The
			// bytes themselves may shrink — the decoder tolerates
			// non-canonical varints with trailing zero continuations, the
			// encoder never emits them.)
			re := appendDeltaList(nil, list)
			if len(re) > n {
				t.Fatalf("canonical re-encode (%d bytes) longer than accepted input (%d)", len(re), n)
			}
			got2, n2, ok2 := decodeDeltaList(re, deg, nil)
			if !ok2 || n2 != len(re) {
				t.Fatalf("re-encoded list failed to decode")
			}
			for i := range list {
				if got2[i] != list[i] {
					t.Fatalf("re-encode round-trip mismatch at %d", i)
				}
			}
		}
		// Direction 3: round-trip a synthesized strictly-increasing list
		// derived from the fuzz bytes.
		syn := make([]V, 0, len(data))
		prev := uint64(0)
		for _, b := range data {
			next := prev + uint64(b) + 1
			if next >= 1<<32 {
				break
			}
			syn = append(syn, V(next))
			prev = next
		}
		// Direction 4: the same ids as a CompressedAdj of deg-id lists, each
		// preceded by an empty one, read back by plain-image coordinates.
		off := []uint64{0}
		for at := 0; at < len(syn); at += deg {
			off = append(off, uint64(at), uint64(min(at+deg, len(syn))))
		}
		ca := NewCompressedAdj(off, func(i int, _ []V) []V { return syn[off[i]:off[i+1]] })
		for i := 0; i+1 < len(off); i++ {
			l := ca.DecodeAt(int(off[i])*4, int(off[i+1]-off[i])*4, nil)
			if len(l) != int(off[i+1]-off[i]) || (len(l) > 0 && (l[0] != syn[off[i]] || l[len(l)-1] != syn[off[i+1]-1])) {
				t.Fatalf("DecodeAt(list %d of %d, arcs %d..%d) = %v", i, len(off)-1, off[i], off[i+1], l)
			}
		}
		enc := appendDeltaList(nil, syn)
		got, n2, ok2 := decodeDeltaList(enc, len(syn), nil)
		if !ok2 || n2 != len(enc) {
			t.Fatalf("round-trip decode failed (ok=%v, consumed %d of %d)", ok2, n2, len(enc))
		}
		for i := range syn {
			if got[i] != syn[i] {
				t.Fatalf("round-trip mismatch at %d: %d != %d", i, got[i], syn[i])
			}
		}
	})
}

// FuzzReadBinaryStore frames fuzzed offsets, adjacency and byte-offset
// payloads as a container with valid checksums (random bytes almost never
// get past the CRCs) and holds ReadBinaryStore to its contract: a
// *CorruptError, or a store that materializes without panicking into a
// graph that passes ValidateQuick. The header's n and arcs follow from the
// offsets, and the adjacency is cut to where the offsets say it ends.
func FuzzReadBinaryStore(f *testing.F) {
	g := ringGraph(6)
	off32 := make([]uint32, len(g.offsets))
	for i, o := range g.offsets {
		off32[i] = uint32(o)
	}
	f.Add(uint8(flagOff32), LEBytes(off32), LEBytes(g.adj), []byte(nil))
	varint := uint8(flagVarint | flagOff32 | flagByte32)
	c := CompressGraph(g)
	f.Add(varint, LEBytes(c.ca.po32), c.ca.data, LEBytes(c.ca.bo32))
	bad := malformedVarint()["continuation bit on the first byte"].ca
	f.Add(varint, LEBytes(bad.po32), bad.data, LEBytes(bad.bo32))
	f.Fuzz(func(t *testing.T, flags uint8, off, adj, bo []byte) {
		h := &binHeader{kind: Undirected, flags: uint32(flags) & flagsKnown}
		if flags&0x80 != 0 {
			h.kind = Directed
		}
		// entry returns entry i of a little-endian array of width-byte entries.
		entry := func(b []byte, width, i int) uint64 {
			if width == 4 {
				return uint64(binary.LittleEndian.Uint32(b[4*i:]))
			}
			return binary.LittleEndian.Uint64(b[8*i:])
		}
		h.n = len(off)/h.offWidth() - 1
		if h.n < 0 {
			return
		}
		off = off[:(h.n+1)*h.offWidth()]
		arcs := entry(off, h.offWidth(), h.n)
		h.arcs = int(arcs)
		payloads := [][]byte{off, adj}
		if h.flags&flagVarint == 0 {
			if arcs < uint64(len(adj))/4 {
				payloads[1] = adj[:4*arcs]
			}
		} else {
			if bw := h.byteOffWidth(); len(bo) >= (h.n+1)*bw {
				bo = bo[:(h.n+1)*bw]
				if end := entry(bo, bw, h.n); end < uint64(len(adj)) {
					payloads[1] = adj[:end]
				}
			}
			payloads = append(payloads, bo)
		}
		var buf bytes.Buffer
		if err := writePayloads(&buf, h, payloads...); err != nil {
			t.Fatal(err)
		}
		st, err := ReadBinaryStore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a *CorruptError", err)
			}
			return
		}
		if err := Materialize(st).ValidateQuick(); err != nil {
			t.Fatalf("%T passed ReadBinaryStore but not ValidateQuick: %v", st, err)
		}
	})
}
