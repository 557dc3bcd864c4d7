package lcc

// Snapshot integrity: per-rank CRC-32C over the resident adjacency plane,
// recorded once at build time and re-verifiable for the life of the
// snapshot. The serving layer holds snapshots resident for hours serving
// thousands of queries; a DRAM fault or wild write in that window would
// otherwise corrupt results silently — the engines trust resident memory
// completely, and a flipped adjacency bit just becomes a wrong triangle
// count. The scrubber (serve.Scrubber) calls Verify on idle instances and
// quarantines on mismatch.
//
// Coverage: each rank's offset table and adjacency plane (plain vertex
// array, or the compressed stream plus both of its offset indexes), and
// the global packed resolve table. All of it is immutable after build and
// read on every query: the offsets window serves the offset tables
// themselves and the adjacency window the planes, so no query reads a copy
// the sums miss. The orientation index (orient.go)
// fills while queries run, so it has no build-time sum: Verify recomputes
// each filled entry from the tables it has just checked. The checksums themselves are
// host-side metadata: the model plane never observes them, so recording or
// verifying them cannot move a single simulated bit (the same invisibility
// contract as the storage plane, DESIGN.md §9).

import (
	"fmt"
	"hash/crc32"

	"repro/internal/graph"
	"repro/internal/part"
)

// Integrity section names, as reported by IntegrityError.
const (
	SectionOffsets   = "offsets"
	SectionAdjacency = "adjacency"
	SectionResolve   = "resolve"
	SectionIndex     = "index"
)

var integrityCRC = crc32.MakeTable(crc32.Castagnoli)

// IntegrityError reports a checksum mismatch in a snapshot's resident
// state: the rank and section whose bytes no longer match the build-time
// CRC-32C. Rank is -1 for the global resolve table and for the orientation
// index, which has no checksum: Vertex names the entry that no longer
// matches its adjacency list.
type IntegrityError struct {
	Rank    int
	Section string
	Want    uint32
	Got     uint32
	Vertex  graph.V // SectionIndex only
}

func (e *IntegrityError) Error() string {
	if e.Section == SectionIndex {
		return fmt.Sprintf("lcc: snapshot integrity: orientation index entry of vertex %d does not match its adjacency list", e.Vertex)
	}
	if e.Rank < 0 {
		return fmt.Sprintf("lcc: snapshot integrity: %s table checksum mismatch (want %08x, got %08x)",
			e.Section, e.Want, e.Got)
	}
	return fmt.Sprintf("lcc: snapshot integrity: rank %d %s checksum mismatch (want %08x, got %08x)",
		e.Rank, e.Section, e.Want, e.Got)
}

// rankSums is one rank's build-time checksums.
type rankSums struct {
	offsets uint32
	adj     uint32
}

// checksum is the CRC-32C of s's little-endian byte image — on a
// little-endian host its own memory, so a sum costs one read of the array.
func checksum[T uint32 | uint64](s []T) uint32 {
	return crc32.Checksum(graph.LEBytes(s), integrityCRC)
}

// sumsOf returns the checksums of one rank's resident tables.
func sumsOf(lc *part.LocalCSR) rankSums {
	sums := rankSums{offsets: checksum(lc.Offsets)}
	if lc.Comp != nil {
		sums.adj = lc.Comp.Checksum(0, integrityCRC)
	} else {
		sums.adj = checksum(lc.Adj)
	}
	return sums
}

// Verify re-checksums the snapshot's resident state against the sums
// recorded at build time and returns a *IntegrityError naming the first
// mismatching (rank, section), or nil when every section still matches.
// The filled part of the orientation index is checked last, by recomputing
// it from the lists that just passed. Safe to call concurrently with runs —
// the checksummed tables are immutable, index entries are published whole,
// Verify only reads — though the scrubber calls it on idle instances so a
// detected fault can quarantine before the next query, not after.
func (s *Snapshot) Verify() error {
	for r, lc := range s.locals {
		got, want := sumsOf(lc), s.sums[r]
		if got.offsets != want.offsets {
			return &IntegrityError{Rank: r, Section: SectionOffsets, Want: want.offsets, Got: got.offsets}
		}
		if got.adj != want.adj {
			return &IntegrityError{Rank: r, Section: SectionAdjacency, Want: want.adj, Got: got.adj}
		}
	}
	if got := checksum(s.resolve); got != s.resolveSum {
		return &IntegrityError{Rank: -1, Section: SectionResolve, Want: s.resolveSum, Got: got}
	}
	if v, ok := s.orient.verify(s.adjInto); !ok {
		return &IntegrityError{Rank: -1, Section: SectionIndex, Vertex: v}
	}
	return nil
}

// adjInto returns adj(v) from the resident per-rank tables, decoding into
// buf when they are compressed.
func (s *Snapshot) adjInto(v graph.V, buf []graph.V) []graph.V {
	slot, li := unpackResolve(s.resolve[v])
	return s.locals[slot].AdjInto(li, buf)
}

// CorruptForTest flips one bit in the named section — SectionResolve and
// SectionIndex (an entry some run has filled) ignore rank — so the integrity
// tests and the chaos harness can stage the fault Verify exists to catch.
// Never call it while a run is in flight on the snapshot.
func (s *Snapshot) CorruptForTest(rank int, section string) error {
	switch {
	case section == SectionIndex:
		for v := range s.orient.word {
			if w := s.orient.word[v].Load(); w > 1 { // 1 would flip to "not filled"
				s.orient.word[v].Store(w ^ 1)
				return nil
			}
		}
		return fmt.Errorf("lcc: orientation index has no entry to flip")
	case section == SectionResolve:
		if len(s.resolve) == 0 {
			return fmt.Errorf("lcc: empty resolve table")
		}
		s.resolve[len(s.resolve)/2] ^= 1
	case rank < 0 || rank >= len(s.locals):
		return fmt.Errorf("lcc: rank %d out of range [0,%d)", rank, len(s.locals))
	case section == SectionOffsets:
		off := s.locals[rank].Offsets
		off[len(off)/2] ^= 1
	case section == SectionAdjacency:
		lc := s.locals[rank]
		if lc.Comp != nil {
			lc.Comp.CorruptForTest()
		} else if len(lc.Adj) > 0 {
			lc.Adj[len(lc.Adj)/2] ^= 1
		} else {
			return fmt.Errorf("lcc: rank %d has no adjacency", rank)
		}
	default:
		return fmt.Errorf("lcc: unknown section %q", section)
	}
	return nil
}
