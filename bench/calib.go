package main

import (
	"math/rand/v2"
	"os"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The reference host is a shared VM whose speed drifts by ±25 % over tens
// of seconds (neighbours on the same cores and caches; the guest sees no
// steal time). Longer windows do not average that out — sizing runs gave an
// inter-quartile spread of 10–26 % between consecutive 5–25 s windows of
// the same op — so the timed end-to-end metrics are drift-corrected: a
// frozen kernel owned by the benchmark runs between ops — in the benchmark's
// own process, with the measured one stopped — and each op's wall is scaled
// by nominal/measured kernel time. The kernel is branchy merge
// intersection of sorted lists over a ~4 MB pool, the same instruction and
// memory mix the engine's hot loop has, but none of the engine's code, so a
// later change to the engine cannot move the yardstick. Corrected spreads
// measured 3–6 % where raw ones measured 11–17 %.

// calibNominalMS is the kernel's median wall on the reference host (2 vCPU
// Xeon @ 2.1 GHz VM) while this benchmark was sized; it only fixes the unit,
// so that a corrected number reads as milliseconds on that host.
const calibNominalMS = 70.0

type calib struct {
	lists [][]uint32
	pairs [][2]int32
}

func newCalib() *calib {
	rng := rand.New(rand.NewPCG(0xCA11B, 0x5EED))
	c := &calib{}
	for total := 0; total < 1<<20; {
		// cubed uniform: mostly short lists, a few long ones
		u := rng.Float64()
		a := make([]uint32, 8+int(2000*u*u*u))
		for i := range a {
			a[i] = uint32(rng.IntN(1 << 15))
		}
		slices.Sort(a)
		c.lists = append(c.lists, a)
		total += len(a)
	}
	c.pairs = make([][2]int32, 20000)
	for i := range c.pairs {
		c.pairs[i] = [2]int32{int32(rng.IntN(len(c.lists))), int32(rng.IntN(len(c.lists)))}
	}
	calibSink += c.kernel() // first touch: page faults and cold caches stay out of the first reading
	return c
}

func (c *calib) kernel() int {
	n := 0
	for _, p := range c.pairs {
		a, b := c.lists[p[0]], c.lists[p[1]]
		for i, j := 0, 0; i < len(a) && j < len(b); {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				n++
				i++
				j++
			}
		}
	}
	return n
}

var calibSink int

// wallMS runs the kernel on nproc goroutines at once — as many as the
// measured op keeps busy — and returns the wall of the slowest.
func (c *calib) wallMS() float64 {
	k := nproc()
	counts := make([]int, k)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[i] = c.kernel()
		}()
	}
	wg.Wait()
	ms := msSince(t0)
	calibSink += counts[0]
	return ms
}

// frozenWallMS is wallMS while p, the measured process, is stopped: not even
// its collector shares the cores with the yardstick then, so the garbage a
// change leaves cannot slow the reading and shrink its own measured cost.
// (Forcing a collection before the reading instead changes what is measured:
// 15 k page faults an op on cached-uniform where 11 k are normal.)
func (c *calib) frozenWallMS(p *os.Process) float64 {
	p.Signal(syscall.SIGSTOP)
	defer p.Signal(syscall.SIGCONT)
	return c.wallMS()
}

// corrected scales a wall measured between two kernel runs to the nominal
// host speed.
func corrected(wall, calBefore, calAfter float64) float64 {
	return wall * calibNominalMS / ((calBefore + calAfter) / 2)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
