package graph

import "hash/crc32"

// In-memory integrity support for the compressed adjacency plane: the
// serving layer's scrubber (internal/serve) re-checksums resident
// snapshots to catch silent corruption, and CompressedAdj's backing
// arrays are unexported — so the checksum walk lives here, next to the
// representation it covers. The same Castagnoli polynomial as the binary
// container (io.go) keeps the whole repo on one checksum discipline.

// Checksum folds the compressed plane's entire resident state — encoded
// stream plus both offset indexes — into the given CRC. A single flipped
// bit anywhere changes the result: corruption of the index arrays is as
// fatal to decoding as corruption of the stream itself.
func (ca *CompressedAdj) Checksum(crc uint32, tab *crc32.Table) uint32 {
	crc = crc32.Update(crc, tab, ca.data)
	crc = crc32.Update(crc, tab, LEBytes(ca.po32))
	crc = crc32.Update(crc, tab, LEBytes(ca.po64))
	crc = crc32.Update(crc, tab, LEBytes(ca.bo32))
	crc = crc32.Update(crc, tab, LEBytes(ca.bo64))
	return crc
}

// CorruptForTest flips one bit of the encoded stream — the integrity
// tests' and chaos harness's stand-in for a DRAM or wild-write fault.
// Never call it on a plane a run may be decoding from.
func (ca *CompressedAdj) CorruptForTest() {
	if len(ca.data) > 0 {
		ca.data[len(ca.data)/2] ^= 0x10
	}
}
