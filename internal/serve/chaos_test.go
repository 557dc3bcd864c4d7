package serve_test

// In-process chaos: a seeded storm of loads, runs, cancels, corruptions,
// scrubs, parks and stops against one supervisor, safe under -race (the
// CI chaos lane runs it with -race). The daemon-level campaign — real
// process, real SIGKILL, real state dir — lives in cmd/lccd -chaos-smoke;
// this test covers the same invariants where the race detector can see
// them: every error is one of the typed classes, every successful run is
// bit-identical to the golden pins, and the Served counter agrees
// exactly with the successes observed (no lost or duplicated runs).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lcc"
	"repro/internal/sched"
	"repro/internal/serve"
)

// chaosSplitmix is the deterministic schedule stream; each goroutine
// derives its own from the campaign seed so -race interleavings change
// timing but never the op sequence a goroutine issues.
type chaosSplitmix struct{ s uint64 }

func (r *chaosSplitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	x := r.s
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (r *chaosSplitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// typedChaosError reports whether err belongs to the typed vocabulary a
// chaos client may legitimately observe. Anything else is an invariant
// violation.
func typedChaosError(err error) bool {
	switch {
	case errors.Is(err, serve.ErrBusy),
		errors.Is(err, serve.ErrNotReady),
		errors.Is(err, serve.ErrUnhealthy),
		errors.Is(err, serve.ErrInstanceExited),
		errors.Is(err, serve.ErrUnknownInstance),
		errors.Is(err, serve.ErrAlreadyRunning),
		errors.Is(err, serve.ErrQueueTimeout),
		errors.Is(err, serve.ErrStalled),
		errors.Is(err, serve.ErrServerBusy),
		errors.Is(err, serve.ErrBrownout),
		errors.Is(err, sched.ErrRunCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return true
	}
	return false
}

// TestChaosSupervisorStorm is the in-process campaign: several client
// goroutines hammer a budgeted, run-capped supervisor with mixed
// traffic while a scrubber-style loop corrupts and sweeps. Short mode
// (the -race CI lane) runs a reduced op count.
func TestChaosSupervisorStorm(t *testing.T) {
	ops := 12
	if testing.Short() {
		ops = 6
	}
	sup := serve.NewSupervisor()
	sup.SetManifestStore(testStore(t))
	sup.SetRunCap(8)
	cfg := serve.Config{
		Dataset: "fb-sim", Ranks: 4, MaxConcurrent: 2, QueueDepth: 4,
		StallTimeout: 5 * time.Second,
	}
	inst, err := sup.Load("fb", cfg)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	golden, err := sup.Run(context.Background(), "fb", pullQuery(2))
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	assertPins(t, golden)

	// gate serializes corruption against traffic: corrupt-and-sweep holds
	// the write side until the scrub has caught (and healed) the damage,
	// so no client run is admitted onto a corrupted snapshot. This models
	// the scrub contract honestly — scrubbing guarantees detection before
	// the NEXT idle admission, not time travel for queries already racing
	// the bit flip.
	var (
		wg     sync.WaitGroup
		gate   sync.RWMutex
		okRuns atomic.Int64
	)
	servedBefore := inst.Info().Counters.Served
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := &chaosSplitmix{s: uint64(g)*0x9E37 + 1}
			for i := 0; i < ops; i++ {
				switch rng.intn(6) {
				case 0, 1: // golden run on fb
					gate.RLock()
					res, err := sup.Run(context.Background(), "fb", pullQuery(1+rng.intn(4)))
					gate.RUnlock()
					if err != nil {
						if !typedChaosError(err) {
							t.Errorf("run: untyped error %v", err)
						}
						continue
					}
					okRuns.Add(1)
					if res.Triangles != pinTriangles || res.ScoreBits != pinLCCBits || res.SumT != pinSumT {
						t.Errorf("run bits drifted: %+v", res)
					}
				case 2: // canceled run
					gate.RLock()
					ctx, cancel := context.WithCancel(context.Background())
					go func() {
						time.Sleep(time.Duration(rng.intn(3)) * time.Millisecond)
						cancel()
					}()
					res, err := sup.Run(ctx, "fb", pullQuery(2))
					cancel()
					gate.RUnlock()
					if err != nil {
						if !typedChaosError(err) {
							t.Errorf("canceled run: untyped error %v", err)
						}
						continue
					}
					okRuns.Add(1)
					if res.Triangles != pinTriangles {
						t.Errorf("raced-cancel run bits drifted: %+v", res)
					}
				case 3: // corrupt-and-sweep, exclusive with client traffic
					gate.Lock()
					section := []string{
						lcc.SectionOffsets, lcc.SectionAdjacency, lcc.SectionResolve,
					}[rng.intn(3)]
					if err := inst.CorruptResident(rng.intn(4), section); err != nil {
						// Not ready/idle right now (e.g. unhealthy from a racing
						// failure path) — typed, and nothing to sweep.
						if !typedChaosError(err) {
							t.Errorf("corrupt: untyped error %v", err)
						}
						gate.Unlock()
						continue
					}
					// With the write side held the instance is idle, so the
					// very next sweep must detect and heal the damage.
					if q := sup.ScrubNow(); len(q) != 1 {
						t.Errorf("sweep after corruption quarantined %v, want exactly fb", q)
					}
					gate.Unlock()
				case 4: // churn a second instance
					_, err := sup.Load(fmt.Sprintf("side-%d", g), serve.Config{
						Dataset: "fb-sim", Ranks: 2, MaxConcurrent: 1,
					})
					if err != nil && !typedChaosError(err) {
						t.Errorf("side load: untyped error %v", err)
					}
					if err == nil {
						if err := sup.Stop(fmt.Sprintf("side-%d", g)); err != nil && !typedChaosError(err) {
							t.Errorf("side stop: untyped error %v", err)
						}
					}
				case 5: // observers
					for _, info := range sup.List() {
						serving := info.State == "ready" || info.State == "busy"
						if serving && (info.State == "busy") != (info.Active > 0) {
							t.Errorf("%s reports state=%s with active=%d: busy must mean runs in flight", info.Name, info.State, info.Active)
						}
					}
					_ = sup.ServerInfo()
					_ = sup.Healthy()
				}
			}
		}(g)
	}
	wg.Wait()

	// Settle: quiesce any stragglers, then the books must balance and the
	// plane must still serve golden bits.
	served := inst.Info().Counters.Served - servedBefore
	if served != okRuns.Load() {
		t.Errorf("Served moved %d, clients saw %d successes — lost or duplicated runs", served, okRuns.Load())
	}
	// One final sweep pass in case the last op left corruption pending,
	// then the golden query must pin.
	for try := 0; try < 200; try++ {
		sup.ScrubNow()
		res, err := sup.Run(context.Background(), "fb", pullQuery(4))
		if err != nil {
			if !typedChaosError(err) {
				t.Fatalf("final run: untyped error %v", err)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		assertPins(t, res)
		return
	}
	t.Fatal("could not obtain a final golden result after the storm")
}
