package serve_test

// Self-healing serving plane tests (DESIGN.md §10): the run watchdog
// (wedged runs force-canceled with typed diagnostics, golden bits after
// reload), integrity scrubbing (corrupt resident sections quarantined
// and auto-reloaded, golden bits afterwards), server-wide load shedding
// (run cap, memory brownout) and manifest crash-consistency.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/lcc"
	"repro/internal/serve"
)

// wedgeQuery is pullQuery plus a fault schedule that parks rank 0
// forever at its 40th issue point — the deterministic stand-in for a
// stuck syscall or deadlocked lock.
func wedgeQuery(workers int) serve.Query {
	q := pullQuery(workers)
	q.Options.Faults = &fault.Spec{WedgeRank: 0, WedgeAtOp: 40}
	return q
}

// TestWatchdogStall wedges a run at Workers ∈ {1,4} and asserts the full
// watchdog contract: the run fails with a typed *StallError (matching
// ErrStalled, carrying per-rank progress and goroutine stacks), the
// instance flips unhealthy with the stall recorded, follow-up runs are
// fenced with ErrUnhealthy, and a Reload restores golden service.
func TestWatchdogStall(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			inst := serve.NewInstance("wd", serve.Config{
				Dataset: "fb-sim", Ranks: 4, StallTimeout: 150 * time.Millisecond,
			})
			if err := inst.Start(); err != nil {
				t.Fatalf("Start: %v", err)
			}
			_, err := inst.Run(context.Background(), wedgeQuery(w))
			if !errors.Is(err, serve.ErrStalled) {
				t.Fatalf("wedged run err = %v, want ErrStalled", err)
			}
			var se *serve.StallError
			if !errors.As(err, &se) {
				t.Fatalf("wedged run err = %v, want *StallError", err)
			}
			if se.Instance != "wd" {
				t.Errorf("StallError.Instance = %q, want wd", se.Instance)
			}
			if se.Stall < 150*time.Millisecond {
				t.Errorf("StallError.Stall = %v, want >= stall timeout", se.Stall)
			}
			if len(se.Progress.Ticks) != 4 {
				t.Errorf("progress ranks = %d, want 4", len(se.Progress.Ticks))
			}
			if len(se.Stacks) == 0 {
				t.Error("StallError.Stacks empty, want goroutine dump")
			}
			if !strings.Contains(string(se.Stacks), "goroutine") {
				t.Error("StallError.Stacks does not look like a stack dump")
			}
			if st := inst.State(); st != serve.StateUnhealthy {
				t.Fatalf("state after stall = %v, want unhealthy", st)
			}
			if f := inst.Failure(); !errors.Is(f, serve.ErrStalled) {
				t.Errorf("Failure = %v, want the stall", f)
			}
			if got := inst.Info().Counters.Stalled; got != 1 {
				t.Errorf("Counters.Stalled = %d, want 1", got)
			}
			if _, err := inst.Run(context.Background(), pullQuery(w)); !errors.Is(err, serve.ErrUnhealthy) {
				t.Fatalf("run on stalled instance err = %v, want ErrUnhealthy", err)
			}
			if err := inst.Reload(); err != nil {
				t.Fatalf("Reload after stall: %v", err)
			}
			res, err := inst.Run(context.Background(), pullQuery(w))
			if err != nil {
				t.Fatalf("run after reload: %v", err)
			}
			assertPins(t, res)
		})
	}
}

// TestWatchdogSparesHealthyRuns pins the no-false-positive side: a
// normal full run under a tight-but-fair stall timeout completes with
// golden bits — barrier waits do not read as stalls, because the
// stragglers a barrier waits for keep ticking the progress counter.
func TestWatchdogSparesHealthyRuns(t *testing.T) {
	inst := serve.NewInstance("wd-ok", serve.Config{
		Dataset: "fb-sim", Ranks: 4, StallTimeout: 2 * time.Second,
	})
	if err := inst.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for _, w := range []int{1, 4} {
		res, err := inst.Run(context.Background(), pullQuery(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		assertPins(t, res)
	}
	if got := inst.Info().Counters.Stalled; got != 0 {
		t.Fatalf("Counters.Stalled = %d, want 0", got)
	}
}

// TestScrubQuarantineReload corrupts each verified section in turn at
// Workers ∈ {1,4}: the scrub must detect exactly the damaged section,
// quarantine with a typed *ScrubError, auto-reload from the dataset
// source, and serve golden bits again — and the supervisor's sweep
// reports it all in the scrub stats.
func TestScrubQuarantineReload(t *testing.T) {
	sections := []struct {
		section  string
		rank     int
		wantRank int // rank recorded in the IntegrityError (-1 = resolve table, index)
	}{
		{lcc.SectionOffsets, 1, 1},
		{lcc.SectionAdjacency, 2, 2},
		{lcc.SectionResolve, 0, -1},
		{lcc.SectionIndex, 0, -1}, // filled by the pre-corruption run
	}
	for _, w := range []int{1, 4} {
		for _, tc := range sections {
			t.Run(fmt.Sprintf("workers=%d/%s", w, tc.section), func(t *testing.T) {
				sup := serve.NewSupervisor()
				inst, err := sup.Load("fb", serve.Config{Dataset: "fb-sim", Ranks: 4})
				if err != nil {
					t.Fatalf("load: %v", err)
				}
				res, err := sup.Run(context.Background(), "fb", pullQuery(w))
				if err != nil {
					t.Fatalf("pre-corruption run: %v", err)
				}
				assertPins(t, res)

				if err := inst.CorruptResident(tc.rank, tc.section); err != nil {
					t.Fatalf("CorruptResident: %v", err)
				}
				quarantined := sup.ScrubNow()
				if len(quarantined) != 1 || quarantined[0] != "fb" {
					t.Fatalf("ScrubNow quarantined %v, want [fb]", quarantined)
				}
				stats := sup.ServerInfo().Scrub
				if stats.Quarantines != 1 || stats.Sweeps != 1 || stats.ReloadFailed != 0 {
					t.Fatalf("scrub stats = %+v, want 1 sweep, 1 quarantine, 0 reload failures", stats)
				}
				// ScrubNow's auto-reload is synchronous: by the time the
				// sweep returns, the instance is serving a fresh snapshot.
				if st := inst.State(); st != serve.StateReady {
					t.Fatalf("state after scrub+reload = %v, want ready", st)
				}
				res, err = sup.Run(context.Background(), "fb", pullQuery(w))
				if err != nil {
					t.Fatalf("post-reload run: %v", err)
				}
				assertPins(t, res)
			})
		}
	}
}

// TestScrubErrorTyping drives Instance.Scrub directly to pin the error
// shape: *ScrubError matches ErrQuarantined and carries the
// *lcc.IntegrityError naming the corrupt rank and section.
func TestScrubErrorTyping(t *testing.T) {
	inst := fbInstance(t)
	if err := inst.CorruptResident(1, lcc.SectionAdjacency); err != nil {
		t.Fatalf("CorruptResident: %v", err)
	}
	checked, se, err := inst.Scrub()
	if err != nil {
		t.Fatalf("Scrub reload: %v", err)
	}
	if !checked || se == nil {
		t.Fatalf("Scrub: checked=%v se=%v, want a detection", checked, se)
	}
	if !errors.Is(se, serve.ErrQuarantined) {
		t.Errorf("ScrubError does not match ErrQuarantined")
	}
	var ie *lcc.IntegrityError
	if !errors.As(se, &ie) {
		t.Fatalf("ScrubError does not unwrap to *lcc.IntegrityError")
	}
	if ie.Rank != 1 || ie.Section != lcc.SectionAdjacency {
		t.Errorf("IntegrityError = rank %d section %q, want rank 1 adjacency", ie.Rank, ie.Section)
	}
	if ie.Want == ie.Got {
		t.Errorf("IntegrityError Want == Got (%#x), want a mismatch", ie.Want)
	}
}

// TestScrubCompressedStorage runs the quarantine→reload cycle against
// the compressed adjacency plane, whose checksum covers the varint data
// stream and both offset tables.
func TestScrubCompressedStorage(t *testing.T) {
	sup := serve.NewSupervisor()
	inst, err := sup.Load("fbz", serve.Config{
		Dataset: "fb-sim", Ranks: 4, Storage: lcc.StorageCompressed,
	})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := inst.CorruptResident(3, lcc.SectionAdjacency); err != nil {
		t.Fatalf("CorruptResident: %v", err)
	}
	if q := sup.ScrubNow(); len(q) != 1 {
		t.Fatalf("ScrubNow quarantined %v, want [fbz]", q)
	}
	res, err := sup.Run(context.Background(), "fbz", pullQuery(4))
	if err != nil {
		t.Fatalf("post-reload run: %v", err)
	}
	assertPins(t, res)
}

// TestScrubSkipsBusy pins the sweep's safety protocol: a busy instance
// is never verified or quarantined mid-run — the corruption waits for
// the next idle sweep, which then catches it.
func TestScrubSkipsBusy(t *testing.T) {
	sup := serve.NewSupervisor()
	inst, err := sup.Load("fb", serve.Config{Dataset: "fb-sim", Ranks: 4, MaxConcurrent: 1})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := inst.CorruptResident(0, lcc.SectionOffsets); err != nil {
		t.Fatalf("CorruptResident: %v", err)
	}
	release, join := occupy(t, inst, 2)
	if q := sup.ScrubNow(); len(q) != 0 {
		t.Fatalf("busy sweep quarantined %v, want none", q)
	}
	if got := sup.ServerInfo().Scrub.Verified; got != 0 {
		t.Fatalf("busy sweep verified %d instances, want 0 (skipped)", got)
	}
	close(release)
	join()
	if q := sup.ScrubNow(); len(q) != 1 {
		t.Fatalf("idle sweep quarantined %v, want [fb]", q)
	}
	res, err := sup.Run(context.Background(), "fb", pullQuery(2))
	if err != nil {
		t.Fatalf("post-reload run: %v", err)
	}
	assertPins(t, res)
}

// TestServerRunCap pins the fleet-wide shed: past SetRunCap concurrent
// supervised runs, Supervisor.Run rejects with a *ShedError matching
// ErrServerBusy (distinct from the per-instance ErrBusy) carrying the
// admission numbers, and a freed slot restores service.
func TestServerRunCap(t *testing.T) {
	sup := serve.NewSupervisor()
	inst, err := sup.Load("fb", serve.Config{Dataset: "fb-sim", Ranks: 4, MaxConcurrent: 2})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	sup.SetRunCap(1)

	q, entered, release := blockingQuery(2)
	done := make(chan error, 1)
	go func() {
		_, err := sup.Run(context.Background(), "fb", q)
		done <- err
	}()
	<-entered

	_, err = sup.Run(context.Background(), "fb", pullQuery(2))
	if !errors.Is(err, serve.ErrServerBusy) {
		t.Fatalf("capped run err = %v, want ErrServerBusy", err)
	}
	if errors.Is(err, serve.ErrBusy) {
		t.Error("server-cap shed must not match the per-instance ErrBusy")
	}
	var she *serve.ShedError
	if !errors.As(err, &she) {
		t.Fatalf("capped run err = %v, want *ShedError", err)
	}
	if she.Reason != "run-cap" || she.ActiveRuns != 1 || she.RunCap != 1 {
		t.Errorf("ShedError = %+v, want run-cap 1/1", she)
	}
	// The cap binds the supervisor surface only: the instance still has a
	// free slot (MaxConcurrent 2), so a direct instance run proves the
	// shed happened above per-instance admission, not inside it.
	if _, err := inst.Run(context.Background(), pullQuery(2)); err != nil {
		t.Fatalf("direct instance run under server cap: %v", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("blocking run: %v", err)
	}
	res, err := sup.Run(context.Background(), "fb", pullQuery(2))
	if err != nil {
		t.Fatalf("run after slot freed: %v", err)
	}
	assertPins(t, res)
	if got := sup.ServerInfo().ShedRuns; got != 1 {
		t.Errorf("ServerInfo.ShedRuns = %d, want 1", got)
	}
}

// TestBrownoutSheddingTable is the brownout rejection table: with the
// fleet over budget and nothing evictable, loads shed typed; runs keep
// queueing and serving; and once pressure drains, parking resumes and
// loads are admitted again.
func TestBrownoutSheddingTable(t *testing.T) {
	sup := serve.NewSupervisor()
	cfg := fbConfig()
	cfg.MaxConcurrent = 1
	a, err := sup.Load("a", cfg)
	if err != nil {
		t.Fatalf("load a: %v", err)
	}
	release, join := occupy(t, a, 2)
	sup.SetMemBudget(1)

	// Load: shed, typed, with the numbers.
	_, err = sup.Load("b", fbConfig())
	if !errors.Is(err, serve.ErrBrownout) {
		t.Fatalf("load under brownout err = %v, want ErrBrownout", err)
	}
	var she *serve.ShedError
	if !errors.As(err, &she) {
		t.Fatalf("load under brownout err = %v, want *ShedError", err)
	}
	if she.Reason != "memory-brownout" || she.BudgetBytes != 1 || she.ResidentBytes <= 1 {
		t.Errorf("ShedError = %+v, want memory-brownout with resident > budget 1", she)
	}
	if _, err := sup.Get("b"); !errors.Is(err, serve.ErrUnknownInstance) {
		t.Error("shed load left instance b registered")
	}

	// Run: NOT shed — queues behind the held slot and completes golden.
	queued := make(chan error, 1)
	var queuedRes *serve.QueryResult
	go func() {
		res, err := sup.Run(context.Background(), "a", pullQuery(2))
		queuedRes = res
		queued <- err
	}()
	waitQueued(t, a, 1)

	close(release)
	join()
	if err := <-queued; err != nil {
		t.Fatalf("queued run under brownout: %v", err)
	}
	assertPins(t, queuedRes)

	// Pressure drained: a is idle and evictable now, so the next load
	// parks it and is admitted.
	b, err := sup.Load("b", fbConfig())
	if err != nil {
		t.Fatalf("load b after drain: %v", err)
	}
	if st := a.State(); st != serve.StateParked {
		t.Errorf("a after admitted load = %v, want parked", st)
	}
	if st := b.State(); st != serve.StateReady {
		t.Errorf("b after admitted load = %v, want ready", st)
	}
	if got := sup.ServerInfo().ShedLoads; got != 1 {
		t.Errorf("ServerInfo.ShedLoads = %d, want 1", got)
	}
}

// TestManifestCrashConsistency pins the atomic-write protocol's
// observable half: a completed Save leaves no temp files behind, torn
// temp files from a crashed writer are invisible to LoadAll, a corrupt
// committed manifest is skipped loudly rather than trusted, and an
// overwrite is the new content or the old — never a hybrid.
func TestManifestCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	ms, err := serve.NewManifestStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := &serve.Manifest{Name: "fb", Dataset: "fb-sim", Ranks: 4, QueueDepth: 2}
	if err := ms.Save(m); err != nil {
		t.Fatalf("Save: %v", err)
	}

	// No temp debris after a clean save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("Save left temp file %q behind", e.Name())
		}
	}

	// A crashed writer's torn temp file and a corrupt committed manifest:
	// the former is invisible (wrong suffix), the latter skipped loudly.
	torn := filepath.Join(dir, filepath.Base(ms.Path("fb"))+".tmp123456")
	if err := os.WriteFile(torn, []byte("torn half-write"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk-0000000000000000.lcm"), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	manifests, skipped := ms.LoadAll()
	if len(manifests) != 1 || manifests[0].Name != "fb" || manifests[0].QueueDepth != 2 {
		t.Fatalf("LoadAll = %+v, want just fb with QueueDepth 2", manifests)
	}
	if len(skipped) != 1 || !errors.Is(skipped[0], serve.ErrManifestCorrupt) {
		t.Fatalf("skipped = %v, want one corrupt-manifest error", skipped)
	}

	// Overwrite: the committed file is the new content, atomically.
	m.QueueDepth = 8
	if err := ms.Save(m); err != nil {
		t.Fatalf("overwrite Save: %v", err)
	}
	manifests, _ = ms.LoadAll()
	if len(manifests) != 1 || manifests[0].QueueDepth != 8 {
		t.Fatalf("LoadAll after overwrite = %+v, want QueueDepth 8", manifests)
	}
}
