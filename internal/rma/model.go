// Package rma simulates an MPI-3 RMA runtime: a world of p ranks, windows
// of network-exposed memory, one-sided non-blocking gets and accumulates,
// and passive-target synchronization (MPI_Win_lock_all / flush_all /
// unlock_all), following §II-E of the paper.
//
// Why a simulation: there is no MPI implementation for Go, and this
// reproduction runs on a single machine (see DESIGN.md §1). Ranks execute as
// goroutines, each carrying an independent *simulated clock*. Every remote
// read charges t(s) = α + s·β — precisely the cost model the paper itself
// uses to analyze caching (§IV-D-1) — so the communication/computation
// balance and all crossover behaviour of the evaluation are preserved while
// remaining deterministic and hardware-independent.
package rma

// CostModel holds the calibration constants of the simulated machine. All
// times are in nanoseconds. Defaults mirror the numbers the paper quotes
// for Piz Daint's Cray Aries network (§III-B: remote accesses take 2-3 µs;
// DRAM accesses hundreds of ns, tens when cached).
type CostModel struct {
	// RemoteLatency is α: the setup overhead of one remote read.
	RemoteLatency float64
	// RemoteBytePeriod is β: time to move one byte over the network
	// (0.1 ns/B ≈ 10 GB/s per NIC).
	RemoteBytePeriod float64
	// LocalLatency is the cost of one local (DRAM) access.
	LocalLatency float64
	// LocalBytePeriod is the per-byte cost of streaming local memory.
	LocalBytePeriod float64
	// CacheHitLatency is the cost of serving a read from the CLaMPI
	// cache instead of the network (tens of ns: a hash probe plus an
	// in-cache DRAM copy).
	CacheHitLatency float64
	// CacheMissOverhead is CLaMPI's bookkeeping cost added to every miss
	// that goes through the cache (hash insert, allocator work, possible
	// evictions). This is the overhead that makes caching a net loss
	// when compulsory misses dominate (§IV-D-2, scenario 2).
	CacheMissOverhead float64
	// ComputePerOp is κ: the charge for one comparison inside an
	// intersection kernel. Charging modeled compute instead of wall
	// time keeps distributed results deterministic on any host.
	ComputePerOp float64
	// SendRecvOverhead is the extra per-message cost of two-sided MPI
	// (message matching, possible extra copy) relative to RMA; §II-E
	// motivates RMA with exactly this overhead. Used by internal/p2p.
	SendRecvOverhead float64
	// BarrierLatency is the base cost of a barrier/collective step in
	// the BSP baseline, on top of waiting for the slowest rank.
	BarrierLatency float64
	// Noise optionally injects deterministic per-rank execution noise
	// (see NoiseSpec); the zero value leaves every charge exact. It is
	// part of the cost model so that every engine taking a CostModel can
	// be run under identical noise — the A7 ablation.
	Noise NoiseSpec
}

// DefaultCostModel returns the Cray-Aries-like calibration used throughout
// the evaluation.
func DefaultCostModel() CostModel {
	return CostModel{
		RemoteLatency:     2000, // 2 µs
		RemoteBytePeriod:  0.1,  // 10 GB/s
		LocalLatency:      100,
		LocalBytePeriod:   0.05,
		CacheHitLatency:   30,
		CacheMissOverhead: 750,
		ComputePerOp:      1.5,
		SendRecvOverhead:  1000,
		BarrierLatency:    5000,
	}
}

// RemoteCost returns α + s·β for a remote access of s bytes.
func (m *CostModel) RemoteCost(s int) float64 {
	return m.RemoteLatency + float64(s)*m.RemoteBytePeriod
}

// LocalCost returns the charge for reading s bytes of local memory.
func (m *CostModel) LocalCost(s int) float64 {
	return m.LocalLatency + float64(s)*m.LocalBytePeriod
}

// HitCost returns the charge for serving s bytes from the RMA cache.
func (m *CostModel) HitCost(s int) float64 {
	return m.CacheHitLatency + float64(s)*m.LocalBytePeriod
}

// Clock is a rank's simulated time (rma.Rank's, p2p.Rank's) and, in its
// Ledger, where it went: each move is booked in its kind's slot. The zero
// value reads 0 ns and is noise-free.
type Clock struct {
	now    float64
	noise  *noiseState
	ledger Ledger
}

// Now returns the current simulated time in ns.
func (c *Clock) Now() float64 { return c.now }

// Ledger returns a snapshot of where the clock's time went.
func (c *Clock) Ledger() Ledger { return c.ledger }

// move sets the clock to t, never behind now, and books the move in slot
// k: the one booking rule, which every move of every clock goes through.
func (c *Clock) move(k ChargeKind, t float64) {
	c.ledger[k] += t - c.now
	c.now = t
}

// SetNoise installs a deterministic noise stream for this clock; the rank
// id decorrelates streams within a run. A disabled spec clears the stream.
func (c *Clock) SetNoise(spec NoiseSpec, rank int) {
	if spec.Enabled() {
		c.noise = newNoiseState(spec, rank)
	} else {
		c.noise = nil
	}
}

// Advance moves the clock forward by d ns of kind k (negative d is
// ignored), stretching the charge under the installed noise stream, if
// any. Waits (AdvanceTo) are not perturbed: noise models stolen cycles
// during work, not during blocking.
func (c *Clock) Advance(k ChargeKind, d float64) {
	if d > 0 {
		if c.noise != nil {
			d = c.noise.perturb(c.now, d)
		}
		c.move(k, c.now+d)
	}
}

// AdvanceTo moves the clock to t if t is in the future, booked as k.
func (c *Clock) AdvanceTo(k ChargeKind, t float64) {
	if t > c.now {
		c.move(k, t)
	}
}

// AdvanceRaw moves the clock forward by d ns without noise perturbation
// and without consuming noise-RNG draws. The fault plane's recovery
// charges — timeout detection, backoff sleeps, stall windows, retransmit
// wire time — fold through here: recovery is blocking, not work, the same
// doctrine that exempts AdvanceTo waits from noise. Leaving the noise
// stream untouched keeps the fault-free run's draw sequence embedded
// verbatim in the faulted run, which is what makes SimTime under faults
// deterministically ≥ the fault-free SimTime.
func (c *Clock) AdvanceRaw(k ChargeKind, d float64) {
	if d > 0 {
		c.move(k, c.now+d)
	}
}

// PerturbDuration applies the clock's noise stream to a duration that is
// charged indirectly — e.g. the in-flight time of a non-blocking transfer
// whose completion a later flush observes via AdvanceTo. Noise-free clocks
// return d unchanged.
func (c *Clock) PerturbDuration(d float64) float64 {
	if c.noise != nil && d > 0 {
		return c.noise.perturb(c.now, d)
	}
	return d
}
