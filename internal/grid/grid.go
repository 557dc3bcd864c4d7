// Package grid implements the paper's first future-work direction (§VI i):
// an asynchronous TC/LCC engine over a *2D* distribution whose
// communication cost is lower than the 1D scheme's. The adjacency matrix
// is split over a √p×√p rank grid; rank (i,j) owns block A[I_i, J_j]. The
// engine computes C = A·A ∘ A block-wise, SUMMA-style: rank (i,j)
// accumulates Σ_k A[i,k]·A[k,j] masked by its own block, fetching the
// 2·(√p−1) non-local blocks it needs with one-sided RMA gets — no
// synchronization, exactly as the 1D engine, only the distribution
// changes.
//
// Why this communicates less: the 1D engine re-reads each remote adjacency
// list once per referencing edge (Σ deg² total volume, and O(m/p)
// latency-bound small gets per rank); the 2D engine fetches 2(√p−1) large
// blocks of ~nnz/p entries, i.e. O(nnz/√p) bytes and a handful of
// messages per rank. The per-rank byte advantage is ~avgdeg/√p, eroding as
// p grows — the regime the 2.5D schemes of Solomonik & Demmel (cited in
// §VI) address; the message-count advantage is unconditional.
package grid

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/rma"
)

// Grid describes a √p×√p process grid over n vertices. Vertex rows and
// columns are split into √p contiguous chunks (the 2D analogue of §III-A's
// 1D block scheme).
type Grid struct {
	n int // vertices
	q int // grid side: p = q²
}

// NewGrid creates the process grid. p must be a perfect square (the paper
// assumes p is a power of two for 1D; the 2D analogue needs a square).
func NewGrid(n, p int) (*Grid, error) {
	if p < 1 {
		return nil, fmt.Errorf("grid: invalid rank count %d", p)
	}
	q := int(math.Sqrt(float64(p)))
	if q*q != p {
		return nil, fmt.Errorf("grid: 2D distribution needs a square rank count, got %d", p)
	}
	return &Grid{n: n, q: q}, nil
}

// Side returns √p, the grid dimension.
func (gr *Grid) Side() int { return gr.q }

// Chunk returns the vertex range [lo,hi) of chunk c ∈ [0,√p).
func (gr *Grid) Chunk(c int) (lo, hi int) {
	lo = c * gr.n / gr.q
	hi = (c + 1) * gr.n / gr.q
	return
}

// RankOf maps grid coordinates to the linear rank id.
func (gr *Grid) RankOf(row, col int) int { return row*gr.q + col }

// CoordsOf maps a linear rank id to grid coordinates.
func (gr *Grid) CoordsOf(rank int) (row, col int) { return rank / gr.q, rank % gr.q }

// Block is the CSR of one sub-matrix A[rows lo..hi) restricted to a column
// chunk. Row indices are local (row r holds global vertex rowLo+r); column
// ids stay global, so masked merges need no translation.
type Block struct {
	RowLo, RowHi int
	ColLo, ColHi int
	Offsets      []uint64 // len RowHi-RowLo+1
	Cols         []graph.V
}

// Row returns the global column ids of local row r (global vertex RowLo+r).
func (b *Block) Row(r int) []graph.V {
	return b.Cols[b.Offsets[r]:b.Offsets[r+1]]
}

// RowOf returns the row of a global vertex id, or nil if out of range.
func (b *Block) RowOf(v graph.V) []graph.V {
	if int(v) < b.RowLo || int(v) >= b.RowHi {
		return nil
	}
	return b.Row(int(v) - b.RowLo)
}

// Extract cuts block (rowChunk, colChunk) of g's adjacency matrix.
func (gr *Grid) Extract(g graph.Store, rowChunk, colChunk int) *Block {
	rLo, rHi := gr.Chunk(rowChunk)
	cLo, cHi := gr.Chunk(colChunk)
	b := &Block{RowLo: rLo, RowHi: rHi, ColLo: cLo, ColHi: cHi}
	b.Offsets = make([]uint64, rHi-rLo+1)
	var buf []graph.V
	for r := rLo; r < rHi; r++ {
		buf = g.AdjInto(graph.V(r), buf)
		for _, w := range buf {
			if int(w) >= cLo && int(w) < cHi {
				b.Cols = append(b.Cols, w)
			}
		}
		b.Offsets[r-rLo+1] = uint64(len(b.Cols))
	}
	return b
}

// WireSize returns the serialized size of the block in bytes: the offsets
// array plus the column ids (the quantity charged to the network when a
// remote rank fetches this block).
func (b *Block) WireSize() int {
	return 8*len(b.Offsets) + 4*len(b.Cols)
}

// Serialize encodes the block's arrays for exposure in an RMA window.
// Bounds travel in the window directory (allgathered at setup, like the
// offsets/adjacencies window shapes of the 1D engine).
func (b *Block) Serialize() []byte {
	out := make([]byte, 0, b.WireSize())
	out = append(out, rma.EncodeUint64s(b.Offsets)...)
	out = append(out, rma.EncodeVertices(b.Cols)...)
	return out
}

// DeserializeBlock reconstructs a block from Serialize output and its
// bounds.
func DeserializeBlock(data []byte, rowLo, rowHi, colLo, colHi int) (*Block, error) {
	rows := rowHi - rowLo
	offBytes := 8 * (rows + 1)
	if len(data) < offBytes {
		return nil, fmt.Errorf("grid: block payload too short: %d bytes for %d rows", len(data), rows)
	}
	b := &Block{RowLo: rowLo, RowHi: rowHi, ColLo: colLo, ColHi: colHi}
	b.Offsets = rma.DecodeUint64s(data[:offBytes])
	b.Cols = rma.DecodeVertices(data[offBytes:])
	if int(b.Offsets[rows]) != len(b.Cols) {
		return nil, fmt.Errorf("grid: block offsets end at %d, have %d cols", b.Offsets[rows], len(b.Cols))
	}
	return b, nil
}
