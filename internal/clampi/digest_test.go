package clampi

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// evictionDigest installs the eviction observer on c and returns the
// accessor of an FNV-1a digest over every eviction's (kind, packed key,
// tick), in order, plus the eviction count.
func evictionDigest(c *Cache) func() (uint64, int) {
	h, n := uint64(fnvOffset64), 0
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= fnvPrime64
			x >>= 8
		}
	}
	c.onEvict = func(conflict bool, key, tick uint64) {
		kind := uint64(0)
		if conflict {
			kind = 1
		}
		mix(kind)
		mix(key)
		mix(tick)
		n++
	}
	return func() (uint64, int) { return h, n }
}

// The churns below are fixed-seed access streams over rank 1's 64 KiB
// region. Each completes every get before issuing the next, and calls
// between — which must not be able to change anything — between every two
// operations on the cache.
const digestRegion = 1 << 16

func complete(q *Request, between func()) {
	between()
	q.Wait()
	between()
	q.Release()
}

// churnKeys, when a test sets it, routes the churns' gets through Decide
// with keys handed over: each coordinate's key is derived on its first
// access and reused from then on — across inserts, evictions and flushes,
// up to the next Reset — and that first access is the one Decide is told is
// first. Nil runs the request shell's gets, which derive the key at the get
// and count no compulsory miss.
var churnKeys map[[3]int]Key

// churnGet is one churn access to rank 1's region.
func churnGet(c *Cache, off, size int, score float64, between func()) {
	if churnKeys == nil {
		complete(c.GetScored(1, off, size, score), between)
		return
	}
	at := [3]int{1, off, size}
	k, ok := churnKeys[at]
	if !ok {
		k = c.KeyOf(1, off, size)
		churnKeys[at] = k
	}
	c.Decide(k, score, !ok)
	between()
}

// churnLRU: unscored gets of mixed sizes over a working set a few times the
// buffer, re-touching recent regions so hits stale the heap's snapshots.
func churnLRU(c *Cache, seed uint64, between func()) {
	rng := rand.New(rand.NewPCG(seed, 2))
	var recent [16][2]int
	for i := 0; i < 12000; i++ {
		between()
		size := 8 + 8*rng.IntN(40)
		off := 8 * rng.IntN((digestRegion/2-size)/8)
		if rng.IntN(3) == 0 {
			r := recent[rng.IntN(len(recent))]
			if r[1] != 0 {
				off, size = r[0], r[1]
			}
		}
		recent[i%len(recent)] = [2]int{off, size}
		churnGet(c, off, size, math.NaN(), between)
	}
}

// churnDegree: scored gets whose scores come from eight values, so most
// capacity pops see ties at the minimum and many newcomers are rejected. A
// degree-scored cache converges on its top scores and then stops evicting,
// so the cache is flushed every 2000 gets and fills again.
func churnDegree(c *Cache, seed uint64, between func()) {
	rng := rand.New(rand.NewPCG(seed, 3))
	for i := 0; i < 12000; i++ {
		if i%2000 == 1999 {
			c.Flush()
		}
		between()
		size := 16 + 16*rng.IntN(12)
		off := 16 * rng.IntN((digestRegion/2-size)/16)
		score := float64(1 + (off/16)%8)
		churnGet(c, off, size, score, between)
	}
}

// digestCases are the churns whose eviction order TestVictimOrderDigest
// pins — conflict and capacity, with every tie-break the victim heap's array
// mechanics and the best-fit allocator decide. The constants were recorded at
// the commit before the record slab (pointer entries, container/heap-style
// swaps): the host structures are free to change, these are not.
var digestCases = []struct {
	name   string
	cfg    Config
	churn  func(*Cache, uint64, func())
	digest uint64
	count  int
}{
	{"lru-positional", Config{Capacity: 1 << 13, Buckets: 128}, churnLRU, 0x7cba31266a1ce334, 8081},
	{"lru-conflicts", Config{Capacity: 1 << 13, Buckets: 36, Assoc: 2, PosWeight: 512}, churnLRU, 0x247c0b201af2ee70, 8779},
	{"degree-ties", Config{Capacity: 1 << 13, Buckets: 96}, churnDegree, 0xc62e066b86db7753, 2864},
}

// TestVictimOrderDigest holds a fresh instance and a recycled one to the
// recorded eviction order of every churn.
func TestVictimOrderDigest(t *testing.T) {
	idle := func() {}
	// One instance is recycled through every case after its fresh twin ran
	// it: Reset followed by the same churn must evict in the same order.
	_, _, used := testSetup(t, digestRegion, Config{Capacity: 1 << 12, Buckets: 8})
	churnDegree(used, 5, idle)
	for i, tc := range digestCases {
		_, _, fresh := testSetup(t, digestRegion, tc.cfg)
		sum := evictionDigest(fresh)
		tc.churn(fresh, uint64(i), idle)
		got, n := sum()
		if got != tc.digest || n != tc.count {
			t.Errorf("%s: digest %#x over %d evictions, recorded %#x over %d", tc.name, got, n, tc.digest, tc.count)
		}
		if s := fresh.Stats(); int(s.ConflictEvictions+s.CapacityEvictions) != n {
			t.Errorf("%s: observer saw %d evictions, stats count %d", tc.name, n, s.ConflictEvictions+s.CapacityEvictions)
		}
		if err := fresh.checkInvariants(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		r, w, _ := testSetup(t, digestRegion, tc.cfg)
		sum = evictionDigest(used.Reset(r, w, tc.cfg))
		tc.churn(used, uint64(i), idle)
		if again, _ := sum(); again != got {
			t.Errorf("%s: recycled instance digest %#x, fresh %#x", tc.name, again, got)
		}
	}
}

// TestDecideMatchesRequests runs every churn through Decide, with keys
// derived long before (churnKeys), and requires what the request shell's
// gets produce: the recorded eviction order, the statistics to the bit —
// but a compulsory miss for every distinct coordinate, which only Decide's
// caller knows — and consistent structures, on a fresh instance and on one just Reset
// (whose keys are derived again: a key lasts until its cache's Reset).
// KeyOf refuses a coordinate outside the window geometry with the get's own
// panic.
func TestDecideMatchesRequests(t *testing.T) {
	idle := func() {}
	defer func() { churnKeys = nil }()
	_, _, used := testSetup(t, digestRegion, Config{Capacity: 1 << 12, Buckets: 8})
	churnDegree(used, 5, idle)
	for i, tc := range digestCases {
		_, _, quiet := testSetup(t, digestRegion, tc.cfg)
		tc.churn(quiet, uint64(i), idle)
		want := quiet.Stats()

		r, w, fresh := testSetup(t, digestRegion, tc.cfg)
		for _, c := range []*Cache{fresh, used.Reset(r, w, tc.cfg)} {
			churnKeys = map[[3]int]Key{}
			sum := evictionDigest(c)
			tc.churn(c, uint64(i), idle)
			distinct := int64(len(churnKeys))
			churnKeys = nil
			if got, n := sum(); got != tc.digest || n != tc.count {
				t.Errorf("%s: digest %#x over %d evictions through Decide, recorded %#x over %d",
					tc.name, got, n, tc.digest, tc.count)
			}
			got := c.Stats()
			if got.CompulsoryMisses != distinct {
				t.Errorf("%s: %d compulsory misses through Decide, %d distinct coordinates", tc.name, got.CompulsoryMisses, distinct)
			}
			if got.CompulsoryMisses = 0; got != want {
				t.Errorf("%s: statistics through Decide\n got  %+v\n want %+v", tc.name, got, want)
			}
			if err := c.checkInvariants(); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}
	}
	for _, at := range [][3]int{{2 + 1<<20, 0, 8}, {1, -8, 8}, {1, 0, 1 << 40}} {
		mustPanicWith(t, outsideMsg(at), func() { used.KeyOf(at[0], at[1], at[2]) })
	}
}

// outsideMsg is the panic of a get, or a KeyOf, outside the window geometry.
func outsideMsg(at [3]int) string {
	return fmt.Sprintf("clampi: get (target %d, offset %d, size %d) outside window geometry", at[0], at[1], at[2])
}

// mustPanicWith runs f and requires it to panic with exactly msg.
func mustPanicWith(t *testing.T, msg string, f func()) {
	t.Helper()
	defer func() {
		if got := recover(); got != msg {
			t.Errorf("panic %v, want %q", got, msg)
		}
	}()
	f()
}

// TestPreloadIsModelInvisible replays the churns with Preload called between
// every two operations — on keys of regions that are cached, that are not,
// and of the rank's own region; on a fresh instance and on one just Reset;
// across the churns' own flushes, with KeyOf refusing coordinates outside
// the window geometry in between — and requires the recorded eviction order,
// the statistics of the undisturbed run to the bit, and consistent
// structures.
func TestPreloadIsModelInvisible(t *testing.T) {
	_, _, used := testSetup(t, digestRegion, Config{Capacity: 1 << 12, Buckets: 8})
	for i, tc := range digestCases {
		_, _, quiet := testSetup(t, digestRegion, tc.cfg)
		tc.churn(quiet, uint64(i), func() {})
		want := quiet.Stats()

		r, w, fresh := testSetup(t, digestRegion, tc.cfg)
		for _, c := range []*Cache{fresh, used.Reset(r, w, tc.cfg)} {
			rng := rand.New(rand.NewPCG(uint64(i), 9))
			preload := func() {
				var keys [24]Key
				n := 1 + rng.IntN(len(keys))
				for j := range keys[:n] {
					switch rng.IntN(8) {
					case 0: // no such rank, offset or size: no key
						at := [...][3]int{
							{2 + rng.IntN(1<<20), rng.IntN(digestRegion), 8},
							{1, -1 - rng.IntN(digestRegion), 8},
							{1, 0, 2*digestRegion + rng.IntN(1<<40)},
						}[rng.IntN(3)]
						mustPanicWith(t, outsideMsg(at), func() { keys[j] = c.KeyOf(at[0], at[1], at[2]) })
					case 1: // the rank's own region, which a get would not cache
						keys[j] = c.KeyOf(0, rng.IntN(digestRegion), 8)
					default:
						keys[j] = c.KeyOf(1, 8*rng.IntN(digestRegion/8), 8+8*rng.IntN(40))
					}
				}
				c.Preload(keys[:n])
			}
			preload()
			sum := evictionDigest(c)
			tc.churn(c, uint64(i), preload)
			preload()
			if got, n := sum(); got != tc.digest || n != tc.count {
				t.Errorf("%s: digest %#x over %d evictions with Preload between operations, recorded %#x over %d",
					tc.name, got, n, tc.digest, tc.count)
			}
			if got := c.Stats(); got != want {
				t.Errorf("%s: statistics with Preload between operations\n got  %+v\n want %+v", tc.name, got, want)
			}
			if err := c.checkInvariants(); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			if c.busy {
				t.Errorf("%s: Preload left the cache marked mid-operation", tc.name)
			}
		}
	}
}
