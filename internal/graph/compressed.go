package graph

import (
	"fmt"
	"sort"
)

// CompressedAdj is a varint/delta-encoded adjacency plane: the lists of a
// CSR graph (or of one rank's local partition) stored as delta-coded
// varints with per-list byte offsets. It preserves the plain image's
// addressing — every list is identified by its arc offset in the plain
// layout — so consumers that address adjacency by plain byte offset (the
// RMA window plane does: adjacency reads are "deg*4 bytes at start*4") can
// decode from it without observing the representation.
//
// Offset arrays use 32-bit entries whenever the addressed space fits in
// uint32 (the 32-bit eligibility rule, DESIGN.md §9): plain arc offsets
// shrink to uint32 when arcs < 2^32, byte offsets when the encoded stream
// is under 4 GiB. Both hold for every graph this repository targets short
// of the paper's extreme scale, halving index footprint.
type CompressedAdj struct {
	lists int
	po32  []uint32 // plain arc offsets, length lists+1 (exactly one of po32/po64 set)
	po64  []uint64
	bo32  []uint32 // byte offsets into data, length lists+1
	bo64  []uint64
	data  []byte
}

// NewCompressedAdj encodes the lists whose plain arc offsets are off
// (length lists+1, off[0] == 0). list(i, buf) must return list i, strictly
// increasing, with off[i+1]-off[i] elements; buf is a scratch slice the
// callback may decode into (it is reused across calls).
func NewCompressedAdj(off []uint64, list func(i int, buf []V) []V) *CompressedAdj {
	lists := len(off) - 1
	ca := &CompressedAdj{lists: lists}
	arcs := off[lists]
	bo := make([]uint64, lists+1)
	// Sized for ~2 bytes/arc; append regrows if the graph compresses worse.
	data := make([]byte, 0, 2*arcs)
	var buf []V
	for i := 0; i < lists; i++ {
		bo[i] = uint64(len(data))
		a := list(i, buf)
		if uint64(len(a)) != off[i+1]-off[i] {
			panic(fmt.Sprintf("graph: list %d has %d elements, offsets say %d", i, len(a), off[i+1]-off[i]))
		}
		data = appendDeltaList(data, a)
		if cap(buf) < cap(a) {
			buf = a[:0]
		}
	}
	bo[lists] = uint64(len(data))
	ca.data = data
	if arcs < 1<<32 {
		ca.po32 = make([]uint32, lists+1)
		for i, o := range off {
			ca.po32[i] = uint32(o)
		}
	} else {
		ca.po64 = make([]uint64, lists+1)
		copy(ca.po64, off)
	}
	if uint64(len(data)) < 1<<32 {
		ca.bo32 = make([]uint32, lists+1)
		for i, o := range bo {
			ca.bo32[i] = uint32(o)
		}
	} else {
		ca.bo64 = bo
	}
	return ca
}

func (ca *CompressedAdj) plainOffAt(i int) uint64 {
	if ca.po32 != nil {
		return uint64(ca.po32[i])
	}
	return ca.po64[i]
}

func (ca *CompressedAdj) byteOffAt(i int) uint64 {
	if ca.bo32 != nil {
		return uint64(ca.bo32[i])
	}
	return ca.bo64[i]
}

// Arcs returns the total number of encoded adjacency entries.
func (ca *CompressedAdj) Arcs() int { return int(ca.plainOffAt(ca.lists)) }

// DegreeOf returns the length of list i.
func (ca *CompressedAdj) DegreeOf(i int) int {
	return int(ca.plainOffAt(i+1) - ca.plainOffAt(i))
}

// PlainBytes returns the byte size of the plain adjacency image (4 bytes
// per arc) — the size the RMA window plane reports and charges for.
func (ca *CompressedAdj) PlainBytes() int { return 4 * ca.Arcs() }

// DataBytes returns the encoded stream size in bytes.
func (ca *CompressedAdj) DataBytes() int { return len(ca.data) }

// MemBytes returns the resident footprint: encoded stream plus both offset
// arrays.
func (ca *CompressedAdj) MemBytes() int64 {
	b := int64(len(ca.data))
	b += int64(len(ca.po32))*4 + int64(len(ca.po64))*8
	b += int64(len(ca.bo32))*4 + int64(len(ca.bo64))*8
	return b
}

// DecodeList decodes list i into buf (grown only if too small) and returns
// it. The result is valid until the next decode into the same buf.
func (ca *CompressedAdj) DecodeList(i int, buf []V) []V {
	deg := ca.DegreeOf(i)
	if deg == 0 {
		return buf[:0]
	}
	section := ca.data[ca.byteOffAt(i):ca.byteOffAt(i+1)]
	out, n, ok := decodeDeltaList(section, deg, buf)
	if !ok || n != len(section) {
		panic(fmt.Sprintf("graph: corrupt varint adjacency in list %d", i))
	}
	return out
}

// validate holds a whole graph's stream to what ValidateQuick asks of a
// plain adjacency, decoding every list once, a vertex range per core
// (checkSpans) and one reused buffer per range: each list is exactly its
// degree in exactly its byte range, every id is below the list count, and
// no list holds its own index. Strict order follows from the delta code.
// Both offset arrays must already be checked monotone and bounded.
func (ca *CompressedAdj) validate() error {
	return checkSpans(ca.lists, ca.lists+len(ca.data), ca.byteOffAt, ca.validateRange)
}

// validateRange is validate's pass over lists [lo, hi).
func (ca *CompressedAdj) validateRange(lo, hi int) error {
	var buf []V
	for i := lo; i < hi; i++ {
		section := ca.data[ca.byteOffAt(i):ca.byteOffAt(i+1)]
		deg := ca.DegreeOf(i)
		if deg > len(section) { // every id takes a byte: bounds buf by the stream
			return fmt.Errorf("list %d has %d ids in %d bytes", i, deg, len(section))
		}
		list, used, ok := decodeDeltaList(section, deg, buf)
		if !ok || used != len(section) {
			return fmt.Errorf("list %d does not decode to %d ids in exactly its %d bytes", i, deg, len(section))
		}
		for _, w := range list {
			if int(w) >= ca.lists {
				return fmt.Errorf("list %d has out-of-range id %d (n=%d)", i, w, ca.lists)
			}
			if w == V(i) {
				return fmt.Errorf("list %d has a self-loop", i)
			}
		}
		buf = list
	}
	return nil
}

// DecodeAt decodes the list whose plain image occupies size bytes at byte
// offset off (both in plain-image units: off = start*4, size = deg*4). The
// coordinates must address exactly one whole list — the engines always
// fetch whole vertex runs, and partial-run reads would let host
// representation leak into behaviour — otherwise DecodeAt panics. A read of
// size 0 is the empty list wherever it points: empty lists share their
// plain offset with the list that follows them, so the offset names none.
func (ca *CompressedAdj) DecodeAt(off, size int, buf []V) []V {
	if off%4 != 0 || size%4 != 0 {
		panic(fmt.Sprintf("graph: unaligned compressed read (offset %d, size %d)", off, size))
	}
	if size == 0 {
		return buf[:0]
	}
	// The list that holds arc start is the first one ending past it; the
	// empty lists before it, which start there too, end at it.
	start := uint64(off / 4)
	i := sort.Search(ca.lists, func(i int) bool { return ca.plainOffAt(i+1) > start })
	if i >= ca.lists || ca.plainOffAt(i) != start || ca.DegreeOf(i) != size/4 {
		panic(fmt.Sprintf("graph: compressed read (offset %d, size %d) is not a whole list", off, size))
	}
	return ca.DecodeList(i, buf)
}

// CompressedCSR is a whole-graph Store backed by a CompressedAdj.
type CompressedCSR struct {
	kind Kind
	ca   *CompressedAdj
}

// CompressGraph encodes g as varint/delta-compressed CSR.
func CompressGraph(g *Graph) *CompressedCSR {
	ca := NewCompressedAdj(g.offsets, func(i int, _ []V) []V { return g.Adj(V(i)) })
	return &CompressedCSR{kind: g.kind, ca: ca}
}

// Kind reports whether the graph is directed or undirected.
func (c *CompressedCSR) Kind() Kind { return c.kind }

// NumVertices returns n.
func (c *CompressedCSR) NumVertices() int { return c.ca.lists }

// NumArcs returns the number of stored adjacency entries.
func (c *CompressedCSR) NumArcs() int { return c.ca.Arcs() }

// NumEdges returns m (an undirected edge counts once).
func (c *CompressedCSR) NumEdges() int {
	if c.kind == Undirected {
		return c.ca.Arcs() / 2
	}
	return c.ca.Arcs()
}

// OutDegree returns deg+(v) from the offset array, without decoding.
func (c *CompressedCSR) OutDegree(v V) int { return c.ca.DegreeOf(int(v)) }

// AdjInto decodes the adjacency list of v into buf.
func (c *CompressedCSR) AdjInto(v V, buf []V) []V { return c.ca.DecodeList(int(v), buf) }

// Adjacency returns the underlying compressed adjacency plane.
func (c *CompressedCSR) Adjacency() *CompressedAdj { return c.ca }

// CompressionRatio returns encoded-adjacency bytes over plain-adjacency
// bytes (lower is better; 1.0 means no win).
func (c *CompressedCSR) CompressionRatio() float64 {
	if c.ca.PlainBytes() == 0 {
		return 1
	}
	return float64(c.ca.DataBytes()) / float64(c.ca.PlainBytes())
}
