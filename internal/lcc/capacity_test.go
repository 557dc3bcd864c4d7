package lcc

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/clampi"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/rma"
)

// capacityOpts is fb-sim's configuration at 8 ranks under the paper's
// kernel and overlap, with caching on at the given capacities.
func capacityOpts(off, adj int) Options {
	return Options{Ranks: 8, Method: intersect.MethodHybrid, DoubleBuffer: true,
		Caching: true, OffsetsCacheBytes: off, AdjCacheBytes: adj}
}

// sameBits reports whether two ledgers hold the same float bits slot by slot.
func sameBits(a, b rma.Ledger) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestZeroCachesAreUncached: a cache of 0 bytes is no cache, so a run with
// Caching on and both capacities 0 is the uncached run bit for bit — SimTime,
// the comm critical path and every rank's ledger — with no cache activity,
// clean and under a recovered crash.
func TestZeroCachesAreUncached(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	for _, faults := range []*fault.Spec{nil, {CrashAtOp: 1500, CrashRank: 2, CrashRecover: true}} {
		base := capacityOpts(0, 0)
		base.Caching, base.Faults = false, faults
		want, err := Run(g, base)
		if err != nil {
			t.Fatal(err)
		}
		zero := capacityOpts(0, 0)
		zero.Faults = faults
		got, err := Run(g, zero)
		if err != nil {
			t.Fatal(err)
		}
		if got.Triangles != want.Triangles ||
			math.Float64bits(got.SimTime) != math.Float64bits(want.SimTime) ||
			math.Float64bits(got.MaxCommTime()) != math.Float64bits(want.MaxCommTime()) {
			t.Errorf("faults %v: both caches at 0 B: %d triangles, SimTime %.4f ms, comm %.4f ms; uncached: %d, %.4f ms, %.4f ms",
				faults, got.Triangles, got.SimTime/1e6, got.MaxCommTime()/1e6, want.Triangles, want.SimTime/1e6, want.MaxCommTime()/1e6)
		}
		for r, s := range got.PerRank {
			if !sameBits(s.Ledger, want.PerRank[r].Ledger) {
				t.Errorf("faults %v: rank %d ledger %v, uncached %v", faults, r, s.Ledger, want.PerRank[r].Ledger)
			}
			if s.OffsetsCache != (clampi.Stats{}) || s.AdjCache != (clampi.Stats{}) {
				t.Errorf("faults %v: rank %d cache stats %+v / %+v, want none", faults, r, s.OffsetsCache, s.AdjCache)
			}
		}
	}
}

// TestOneZeroCacheIsOff: with one cache at full size and the other at 0 B,
// only the sized cache sees accesses.
func TestOneZeroCacheIsOff(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	full := 16 * g.NumVertices()
	for _, tc := range []struct {
		name      string
		opt       Options
		sized     func(RankStats) clampi.Stats
		zero      func(RankStats) clampi.Stats
		zeroCache string
	}{
		{"C_offsets full", capacityOpts(full, 0),
			func(s RankStats) clampi.Stats { return s.OffsetsCache },
			func(s RankStats) clampi.Stats { return s.AdjCache }, "C_adj"},
		{"C_adj full", capacityOpts(0, 64<<20),
			func(s RankStats) clampi.Stats { return s.AdjCache },
			func(s RankStats) clampi.Stats { return s.OffsetsCache }, "C_offsets"},
	} {
		res, err := Run(g, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		var accesses int64
		for r, s := range res.PerRank {
			if z := tc.zero(s); z != (clampi.Stats{}) {
				t.Errorf("%s: rank %d %s at 0 B has stats %+v, want none", tc.name, r, tc.zeroCache, z)
			}
			accesses += tc.sized(s).Hits + tc.sized(s).Misses
		}
		if accesses == 0 {
			t.Errorf("%s: the sized cache saw no access", tc.name)
		}
	}
}

// TestNegativeCapacityRejected: a negative capacity is an error before any
// rank starts, so no rank reads a remote list.
func TestNegativeCapacityRejected(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	for _, opt := range []Options{capacityOpts(1<<16, -5), capacityOpts(-5, 1<<16)} {
		var reads atomic.Int64
		opt.OnRemoteRead = func(int, graph.V) { reads.Add(1) }
		if _, err := Run(g, opt); err == nil || reads.Load() != 0 {
			t.Errorf("capacities %d / %d: error %v after %d remote reads, want an error before any",
				opt.OffsetsCacheBytes, opt.AdjCacheBytes, err, reads.Load())
		}
	}
}

// TestFaultOffWorldRejected: a crash or wedge aimed at a rank the run does
// not have would never fire, so every engine refuses it before any rank
// starts, as it refuses a negative capacity.
func TestFaultOffWorldRejected(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	engines := map[string]func(Options) error{
		"pull":    func(o Options) error { _, err := Run(g, o); return err },
		"push":    func(o Options) error { _, err := RunPush(g, o); return err },
		"jaccard": func(o Options) error { _, err := RunJaccard(g, o); return err },
	}
	for _, s := range []string{"crash=9:5", "crashrecover=4:5", "wedge=7:1"} {
		spec, err := fault.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		for name, run := range engines {
			var reads atomic.Int64
			opt := Options{Ranks: 4, Faults: spec, OnRemoteRead: func(int, graph.V) { reads.Add(1) }}
			if err := run(opt); err == nil || reads.Load() != 0 {
				t.Errorf("%s, %s on 4 ranks: error %v after %d remote reads, want an error before any", name, s, err, reads.Load())
			}
		}
	}
}
