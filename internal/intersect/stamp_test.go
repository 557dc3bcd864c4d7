package intersect

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// The two bodies of the stamp kernels and of the rank query's key loop — the
// AVX-512 assembly (stamp_amd64.s) and the Go loops (scratch.go, kernels.go) —
// must agree on every input: the AND on its count and its sum, the probe on
// its count and on where it stops, the rank query on its count, its charge
// and whether the set and the table held up.

// hostAVX512 is useAVX512 as CPUID set it, whatever a test has made of it
// since.
var hostAVX512 = avx512Missing() == ""

// skipWithoutAVX512 skips tb, naming what the host lacks, when it cannot run
// the assembly.
func skipWithoutAVX512(tb testing.TB) {
	tb.Helper()
	if m := avx512Missing(); m != "" {
		tb.Skipf("assembly kernels: Go loops, this host lacks %s", m)
	}
}

// checkProbe holds both probe bodies on (words, b) to the scan that stops at
// b's first id past the bitmap's extent.
func checkProbe(t *testing.T, words []uint64, b []graph.V, what string) {
	t.Helper()
	wantCount, wantN := 0, len(b)
	for i, v := range b {
		if uint64(v) >= 64*uint64(len(words)) {
			wantN = i
			break
		}
		wantCount += int(words[v>>6] >> (v & 63) & 1)
	}
	if c, n := probeCountGeneric(words, b); c != wantCount || n != wantN {
		t.Fatalf("%s: Go probe = %d hits, stop %d; want %d, %d", what, c, n, wantCount, wantN)
	}
	if c, n := probeCountAVX512(words, b); c != wantCount || n != wantN {
		t.Fatalf("%s: AVX-512 probe = %d hits, stop %d; want %d, %d", what, c, n, wantCount, wantN)
	}
}

// checkAnd holds the AVX-512 AND to the Go loop on (words, stamp).
func checkAnd(t *testing.T, words, stamp []uint64, what string) {
	t.Helper()
	wc, ws := andCountGeneric(words, stamp)
	if c, s := andCountAVX512(words, stamp); c != wc || s != ws {
		t.Fatalf("%s: AVX-512 AND = (%d, %#x), Go loop (%d, %#x)", what, c, s, wc, ws)
	}
}

// checkRank holds the AVX-512 rank query to the Go loop on one input and
// returns the Go loop's ok.
func checkRank(t *testing.T, words []uint64, rank []uint32, depth []uint8, keys []graph.V, base int, check bool, what string) bool {
	t.Helper()
	wc, wo, wok := rankCountGeneric(words, rank, depth, keys, base, check)
	if c, o, ok := rankCountAVX512(words, rank, depth, keys, base, check); c != wc || o != wo || ok != wok {
		t.Fatalf("%s (check %v): AVX-512 rank = (%d, %d, %v), Go loop (%d, %d, %v)", what, check, c, o, ok, wc, wo, wok)
	}
	return wok
}

// rankOf returns the rank array of a DenseSet over words: the bits below each
// word, with the total as terminator.
func rankOf(words []uint64) []uint32 {
	rank := make([]uint32, len(words)+1)
	for i, w := range words {
		rank[i+1] = rank[i] + uint32(bits.OnesCount64(w))
	}
	return rank
}

// idsOf lists the ids of words, whose first word is word base of the id space.
func idsOf(words []uint64, base int) []graph.V {
	var ids []graph.V
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			ids = append(ids, graph.V(64*(base+i)+bits.TrailingZeros64(w)))
		}
	}
	return ids
}

func randWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = rng.Uint64() & rng.Uint64() // about a quarter of the bits
	}
	return w
}

func TestStampKernelsMatchGeneric(t *testing.T) {
	skipWithoutAVX512(t)
	t.Log("assembly kernels: AVX-512 bodies, held to the Go loops")
	rng := rand.New(rand.NewSource(27))
	// The AND over every remainder of the eight-word chunk.
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 4; trial++ {
			checkAnd(t, randWords(rng, n), randWords(rng, n+trial), fmt.Sprintf("%d words", n))
		}
	}
	// The probe: lists of every length up to 70 into bitmaps of lengths on
	// and off the chunk width, ascending with ids past the extent at the end,
	// and shuffled with one past the extent in the first, a middle or the last
	// lane of a chunk, the remainder's included.
	for _, nw := range []int{0, 1, 3, 8, 13, 64, 77, 313} {
		words := randWords(rng, nw)
		span := 64*nw + 200
		for n := 0; n <= 70; n++ {
			what := fmt.Sprintf("%d ids into %d words", n, nw)
			checkProbe(t, words, randSet(rng, n, span), what+", ascending")
			if nw == 0 {
				continue
			}
			list := make([]graph.V, n)
			for i := range list {
				list[i] = graph.V(rng.Intn(64 * nw))
			}
			checkProbe(t, words, list, what+", shuffled, all inside")
			for chunk := 0; 8*chunk < n; chunk++ {
				for _, lane := range []int{0, 3, 7} {
					if i := 8*chunk + lane; i < n {
						past := slices.Clone(list)
						past[i] = graph.V(64*nw + rng.Intn(1000))
						checkProbe(t, words, past, fmt.Sprintf("%s, id %d past the extent", what, i))
					}
				}
			}
		}
	}
	// The top of the id space (TestScratchTopOfIDSpace's case): a bitmap of
	// exactly 2³² bits holds 0xFFFFFFFF, one word shorter stops on it. Only
	// the touched pages of the 512 MiB bitmap become resident.
	words := make([]uint64, 1<<26)
	top := []graph.V{0, 1<<32 - 130, 1<<32 - 65, 1<<32 - 64, 1<<32 - 2, 1<<32 - 1}
	for _, v := range top[1:] {
		words[v>>6] |= 1 << (v & 63)
	}
	for n := 0; n <= len(top); n++ {
		checkProbe(t, words, top[:n], "top of the id space")
		checkProbe(t, words[:len(words)-1], top[:n], "top of the id space, one word short")
		checkProbe(t, words, append(slices.Clone(top[n:]), top[:n]...), "top of the id space, rotated")
	}
	checkAnd(t, words[len(words)-13:], words[len(words)-13:], "top of the id space")
}

func TestRankKernelMatchesGeneric(t *testing.T) {
	skipWithoutAVX512(t)
	t.Log("assembly kernels: AVX-512 rank query, held to the Go loop")
	rng := rand.New(rand.NewSource(31))
	for _, nw := range []int{1, 3, 8, 13, 64} {
		for _, base := range []int{0, 5, 1<<26 - nw} { // the last: the top of the id space
			words := randWords(rng, nw)
			rank := rankOf(words)
			ids := idsOf(words, base)
			depth := depthTable(len(ids))
			// Keys from three words below the span to three above it, clipped
			// to the id space.
			lo := 64 * max(base-3, 0)
			span := min(64*(base+nw+3), 1<<32) - lo
			for n := 0; n <= 70; n++ {
				what := fmt.Sprintf("%d keys, %d words from word %d", n, nw, base)
				keys := randSet(rng, n, span)
				for i := range keys {
					keys[i] += graph.V(lo)
				}
				for _, check := range []bool{false, true} {
					if !checkRank(t, words, rank, depth, keys, base, check, what) {
						t.Fatalf("%s: the Go loop refuses an intact set", what)
					}
				}
				// The Go loop, and with it the assembly, is the reference's.
				if n <= len(ids) {
					c, o, _ := rankCountGeneric(words, rank, depth, keys, base, true)
					if wc, wo := Binary(keys, ids); c != wc || o != wo {
						t.Fatalf("%s: rank query = (%d, %d), reference Binary (%d, %d)", what, c, o, wc, wo)
					}
				}
				shuffled := slices.Clone(keys)
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				checkRank(t, words, rank, depth, shuffled, base, true, what+", shuffled")
				if n == 0 {
					continue
				}
				// A key on word k, which a flipped bit in words[k] or rank[k]
				// makes fail its check; the Go loop must see it too.
				k := rng.Intn(nw)
				onK := append(slices.Clone(keys), graph.V(64*(base+k)+rng.Intn(64)))
				sortV(onK)
				word, rk := slices.Clone(words), slices.Clone(rank)
				word[k] ^= 1 << rng.Intn(64)
				rk[k] ^= 1 << rng.Intn(10)
				if checkRank(t, word, rank, depth, onK, base, true, what+", a word flipped") {
					t.Fatalf("%s: a flipped word passes", what)
				}
				if k > 0 && checkRank(t, words, rk, depth, onK, base, true, what+", a rank entry flipped") {
					t.Fatalf("%s: a flipped rank entry passes", what)
				}
				checkRank(t, word, rank, depth, onK, base, false, what+", a word flipped, unchecked")
				// A table for a tree of half the ids: a key past its middle
				// id leaves it.
				if len(ids) > 1 {
					short := depthTable(len(ids) / 2)
					past := append(slices.Clone(keys), ids[len(ids)-1])
					sortV(past)
					past = dedupV(past)
					if checkRank(t, words, rank, short, past, base, false, what+", table too short") {
						t.Fatalf("%s: a table too short passes", what)
					}
				}
			}
		}
	}
}

// stampSink keeps BenchmarkStampKernels' results live.
var stampSink int

// BenchmarkStampKernels times both bodies of each assembly kernel on calls
// shaped like pull-rmat's (DESIGN.md §5): ANDs of 212 words, probes of 101
// ascending ids into a stamp over 20 k vertices, a pivot of 600 ids, and rank
// queries of the same 101 ids into that pivot's own set. ns/op is per call.
func BenchmarkStampKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const universe, calls = 20000, 64
	pivot := randSet(rng, 600, universe)
	stamp := make([]uint64, (universe+63)/64)
	for _, v := range pivot {
		stamp[v>>6] |= 1 << (v & 63)
	}
	sets := make([][]uint64, calls)
	lists := make([][]graph.V, calls)
	for i := range sets {
		sets[i] = randWords(rng, 212)
		lists[i] = randSet(rng, 101, universe)
	}
	for _, k := range []struct {
		name string
		f    func(words, stamp []uint64) (int, uint64)
	}{{"simd", andCountAVX512}, {"generic", andCountGeneric}} {
		b.Run("and/"+k.name, func(b *testing.B) {
			if k.name == "simd" {
				skipWithoutAVX512(b)
			}
			sink := 0
			for i := 0; i < b.N; i++ {
				set := sets[i%calls]
				c, _ := k.f(set, stamp[:len(set)])
				sink += c
			}
			stampSink = sink
		})
	}
	for _, k := range []struct {
		name string
		f    func(words []uint64, b []graph.V) (int, int)
	}{{"simd", probeCountAVX512}, {"generic", probeCountGeneric}} {
		b.Run("probe/"+k.name, func(b *testing.B) {
			if k.name == "simd" {
				skipWithoutAVX512(b)
			}
			sink := 0
			for i := 0; i < b.N; i++ {
				c, _ := k.f(stamp, lists[i%calls])
				sink += c
			}
			stampSink = sink
		})
	}
	own := new(Scratch)
	own.EnsureUniverse(universe)
	if !own.rankTree(pivot, pivot) {
		b.Fatal("the pivot is not rank-indexed")
	}
	set, depth := &own.index, own.depthFor(len(pivot), true)
	for _, k := range []struct {
		name string
		f    func([]uint64, []uint32, []uint8, []graph.V, int, bool) (int, int, bool)
	}{{"simd", rankCountAVX512}, {"generic", rankCountGeneric}} {
		b.Run("rank/"+k.name, func(b *testing.B) {
			if k.name == "simd" {
				skipWithoutAVX512(b)
			}
			sink := 0
			for i := 0; i < b.N; i++ {
				c, _, _ := k.f(set.words, set.rank, depth, lists[i%calls], int(set.first>>6), false)
				sink += c
			}
			stampSink = sink
		})
	}
}
