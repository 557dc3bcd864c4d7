package clampi

import (
	"fmt"
	"math/bits"
)

// keyCoder packs the (target, offset, size) coordinate of a cached RMA
// access into a single uint64, so table lookups compare one word instead of
// three. The field widths
// are derived once per cache from the window geometry: offsets and sizes of
// valid gets are bounded by the largest region any rank exposes, and targets
// by the world size. Both bounds are fixed for the lifetime of a window, so
// the packing is total over every get the cache can observe.
//
// The coder also produces the hash used for bucket selection: the FNV-1a
// loop over the three fields as 8-byte little-endian words, but started from
// the offset basis 1469598103934665603 — the standard 14695981039346656037
// with its last digit dropped — so it is not FNV-1a, and hash/fnv picks other
// buckets. The golden tests pinned this mapping (which keys share a bucket
// decides which conflict evictions happen, and those are visible in the
// pinned hit/miss counts), so the basis stays. The loop is collapsed using
// the field bounds: only the bytes that can be non-zero are mixed
// explicitly, and the run of guaranteed-zero bytes folds into one multiply
// by a precomputed power of the FNV prime (x^=0 is a no-op, so k zero bytes
// contribute exactly *prime^k) — the same multiply as the last non-zero
// byte's own, since products mod 2^64 regroup exactly.
type keyCoder struct {
	offBits  uint   // bit width of the offset and size fields
	tgtBits  uint   // bit width of the target field
	tgtBytes int    // bytes of target that can be non-zero
	offBytes int    // bytes of offset/size that can be non-zero
	tgtTail  uint64 // fnvPrime^(9-tgtBytes): last byte and zero bytes (^8 for none)
	offTail  uint64 // fnvPrime^(9-offBytes)
}

const (
	fnvOffset64 = 1469598103934665603 // not FNV's 14695981039346656037: see keyCoder
	fnvPrime64  = 1099511628211
)

// fnvPow[i] = fnvPrime64^i, for folding runs of zero bytes.
var fnvPow = func() [9]uint64 {
	var p [9]uint64
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * fnvPrime64
	}
	return p
}()

// newKeyCoder derives the packing for a world of `ranks` ranks whose largest
// window region is maxRegion bytes. Offsets and sizes both need to reach
// maxRegion (a get may span a whole region), targets reach ranks-1.
func newKeyCoder(ranks, maxRegion int) keyCoder {
	tb := bits.Len64(uint64(ranks - 1))
	ob := bits.Len64(uint64(maxRegion))
	if ob == 0 {
		ob = 1 // empty window: keep the shifts well-defined
	}
	if tb+2*ob > 64 {
		panic(fmt.Sprintf(
			"clampi: cannot pack cache keys for %d ranks with %d-byte regions (%d bits needed, 64 available)",
			ranks, maxRegion, tb+2*ob))
	}
	tgtBytes := (tb + 7) / 8
	offBytes := (ob + 7) / 8
	return keyCoder{
		offBits:  uint(ob),
		tgtBits:  uint(tb),
		tgtBytes: tgtBytes,
		offBytes: offBytes,
		tgtTail:  fnvPow[min(9-tgtBytes, 8)], // a one-rank world's target has no byte
		offTail:  fnvPow[9-offBytes],
	}
}

// pack folds the access coordinate into one word. Distinct valid coordinates
// map to distinct words; callers must ensure fits() first (an out-of-width
// field would bleed into its neighbor and alias another key, a failure the
// seed's exact three-int comparison could not have).
func (c keyCoder) pack(target, offset, size int) uint64 {
	return uint64(target)<<(2*c.offBits) | uint64(offset)<<c.offBits | uint64(size)
}

// fits reports whether every field is within its packed width. Negative
// values wrap to huge uint64s and are rejected too.
func (c keyCoder) fits(target, offset, size int) bool {
	return uint64(target)>>c.tgtBits == 0 &&
		(uint64(offset)|uint64(size))>>c.offBits == 0
}

// unpack is the inverse of pack (diagnostics and invariant messages).
func (c keyCoder) unpack(k uint64) (target, offset, size int) {
	mask := uint64(1)<<c.offBits - 1
	return int(k >> (2 * c.offBits)), int(k >> c.offBits & mask), int(k & mask)
}

// hash returns the bucket hash (keyCoder's FNV-1a loop from the pinned
// basis) over (target, offset, size) as three 8-byte little-endian words —
// bit-identical to hashing the unpacked fields byte by byte, but in
// O(significant bytes) multiplies.
func (c keyCoder) hash(target, offset, size int) uint64 {
	h := fnvMix(uint64(fnvOffset64), uint64(target), c.tgtBytes, c.tgtTail)
	h = fnvMix(h, uint64(offset), c.offBytes, c.offTail)
	return fnvMix(h, uint64(size), c.offBytes, c.offTail)
}

func fnvMix(h, x uint64, nbytes int, tail uint64) uint64 {
	for ; nbytes > 1; nbytes-- {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return (h ^ x&0xff) * tail
}

// divMagic computes n % d without a hardware divide, via Lemire's fastmod:
// with M = ceil(2^128 / d), n % d = ((M·n mod 2^128) · d) >> 128. The
// bucket mapping h % buckets is golden-pinned and sits on the lookup hot
// path, so the replacement must be bit-exact — TestDivMagicExact verifies
// it against % across divisor shapes. A power of two (or 1) takes a mask.
type divMagic struct {
	d        uint64
	mhi, mlo uint64 // M = ceil(2^128/d), valid for d >= 2 and unused for powers of two
}

func newDivMagic(d uint64) divMagic {
	m := divMagic{d: d}
	if d < 2 {
		return m // mod is always 0; handled in mod()
	}
	// M = floor((2^128-1)/d) + 1 by 128/64 long division.
	qhi := ^uint64(0) / d
	r := ^uint64(0) % d
	qlo, _ := bits.Div64(r, ^uint64(0), d)
	m.mhi, m.mlo = qhi, qlo
	m.mlo++
	if m.mlo == 0 {
		m.mhi++
	}
	return m
}

func (m divMagic) mod(n uint64) uint64 {
	if m.d&(m.d-1) == 0 {
		// §III-B-1 sizes both caches to powers of two for power-of-two
		// graphs and buffers, the benchmark's.
		return n & (m.d - 1)
	}
	// low = (M * n) mod 2^128
	hi1, lo1 := bits.Mul64(m.mlo, n)
	lowHi := m.mhi*n + hi1
	// result = (low * d) >> 128
	h2, _ := bits.Mul64(lo1, m.d)
	h3, l3 := bits.Mul64(lowHi, m.d)
	_, carry := bits.Add64(l3, h2, 0)
	return h3 + carry
}
