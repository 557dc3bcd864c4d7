package serve_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// Durability tests (DESIGN.md §8): manifest round-trips, corrupt and
// version-skewed files skipped loudly, crash-stop recovery (lazy and
// eager) with bit-identical pins, park/reload golden bits, and the LRU
// eviction sweep under a supervisor memory budget.

func testStore(t *testing.T) *serve.ManifestStore {
	t.Helper()
	ms, err := serve.NewManifestStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewManifestStore: %v", err)
	}
	return ms
}

func fbConfig() serve.Config {
	return serve.Config{Dataset: "fb-sim", Ranks: 4, MaxConcurrent: 2, QueueDepth: 4}
}

// TestManifestRoundTrip saves a manifest and reads it back through both
// Load and LoadAll, field for field.
func TestManifestRoundTrip(t *testing.T) {
	ms := testStore(t)
	want := &serve.Manifest{
		Name: "fb", Dataset: "fb-sim", Ranks: 4, Scheme: "block",
		DelegateBytes: 1 << 16, Storage: "compressed", MemBudgetBytes: 1 << 30,
		MaxConcurrent: 2, QueueDepth: 8, DefaultTimeoutMS: 5000,
	}
	if err := ms.Save(want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := ms.Load(ms.Path("fb"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if *got != *want {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	all, skipped := ms.LoadAll()
	if len(all) != 1 || len(skipped) != 0 {
		t.Fatalf("LoadAll = %d manifests, %d skipped; want 1, 0", len(all), len(skipped))
	}
	if err := ms.Remove("fb"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if all, _ := ms.LoadAll(); len(all) != 0 {
		t.Fatalf("manifest survives Remove")
	}
	if err := ms.Remove("fb"); err != nil {
		t.Fatalf("second Remove not idempotent: %v", err)
	}
}

// TestManifestCorruptionDetected flips bytes in a saved manifest and
// asserts every corruption class fails typed, and that LoadAll skips the
// bad file while returning the good ones.
func TestManifestCorruptionDetected(t *testing.T) {
	ms := testStore(t)
	good := &serve.Manifest{Name: "good", Dataset: "fb-sim", Ranks: 4}
	bad := &serve.Manifest{Name: "bad", Dataset: "fb-sim", Ranks: 4}
	for _, m := range []*serve.Manifest{good, bad} {
		if err := ms.Save(m); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	raw, err := os.ReadFile(ms.Path("bad"))
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func([]byte) []byte, wantClass error) {
		t.Helper()
		buf := mutate(append([]byte(nil), raw...))
		if err := os.WriteFile(ms.Path("bad"), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ms.Load(ms.Path("bad"))
		if !errors.Is(err, wantClass) {
			t.Fatalf("%s: err = %v, want %v", name, err, wantClass)
		}
		var me *serve.ManifestError
		if !errors.As(err, &me) {
			t.Fatalf("%s: err = %T, want *ManifestError", name, err)
		}
	}
	corrupt("payload bit flip", func(b []byte) []byte { b[20] ^= 0x40; return b }, serve.ErrManifestCorrupt)
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, serve.ErrManifestCorrupt)
	corrupt("truncated", func(b []byte) []byte { return b[:len(b)-3] }, serve.ErrManifestCorrupt)
	corrupt("version skew", func(b []byte) []byte { b[8] = 99; return b }, serve.ErrManifestVersion)

	all, skipped := ms.LoadAll()
	if len(all) != 1 || all[0].Name != "good" {
		t.Fatalf("LoadAll manifests = %v, want just good", all)
	}
	if len(skipped) != 1 || !errors.Is(skipped[0], serve.ErrManifestVersion) {
		t.Fatalf("LoadAll skipped = %v, want one version-skew error", skipped)
	}
}

// TestParkReloadGolden parks a warm instance and asserts the next query
// transparently rebuilds the snapshot and reproduces the golden pins bit
// for bit, at Workers ∈ {1,4}.
func TestParkReloadGolden(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			inst := fbInstance(t)
			res, err := inst.Run(context.Background(), pullQuery(w))
			if err != nil {
				t.Fatalf("warm run: %v", err)
			}
			assertPins(t, res)
			if err := inst.Park(); err != nil {
				t.Fatalf("Park: %v", err)
			}
			if st := inst.State(); st != serve.StateParked {
				t.Fatalf("state after Park = %v, want parked", st)
			}
			if got := inst.MemBytes(); got != 0 {
				t.Fatalf("MemBytes while parked = %d, want 0", got)
			}
			if err := inst.Park(); err != nil {
				t.Fatalf("Park on parked instance not a no-op: %v", err)
			}
			res, err = inst.Run(context.Background(), pullQuery(w))
			if err != nil {
				t.Fatalf("run against parked: %v", err)
			}
			assertPins(t, res)
			if st := inst.State(); st != serve.StateReady {
				t.Fatalf("state after unpark run = %v, want ready", st)
			}
			if got := inst.MemBytes(); got == 0 {
				t.Fatal("MemBytes after unpark = 0, want resident snapshot")
			}
		})
	}
}

// TestParkRefusesBusy asserts parking never cancels work: a busy instance
// refuses with ErrBusy.
func TestParkRefusesBusy(t *testing.T) {
	inst := fbInstance(t)
	release, join := occupy(t, inst, 2)
	if err := inst.Park(); !errors.Is(err, serve.ErrBusy) {
		t.Fatalf("Park on busy instance: err = %v, want ErrBusy", err)
	}
	close(release)
	join()
	if err := inst.Park(); err != nil {
		t.Fatalf("Park after drain: %v", err)
	}
}

// TestSupervisorEvictionLRU loads instances past a memory budget and
// asserts the least-recently-used idle instance is parked — and that a
// query against the evicted instance transparently restores it with the
// golden pins, in turn parking the other one.
func TestSupervisorEvictionLRU(t *testing.T) {
	sup := serve.NewSupervisor()
	a, err := sup.Load("a", fbConfig())
	if err != nil {
		t.Fatalf("load a: %v", err)
	}
	bytes := a.MemBytes()
	if bytes <= 0 {
		t.Fatalf("MemBytes = %d, want > 0", bytes)
	}
	// Budget fits one snapshot and a half: loading the second instance
	// must park the first (the colder of the two).
	sup.SetMemBudget(bytes + bytes/2)
	b, err := sup.Load("b", fbConfig())
	if err != nil {
		t.Fatalf("load b: %v", err)
	}
	if st := a.State(); st != serve.StateParked {
		t.Fatalf("a after loading b = %v, want parked (LRU)", st)
	}
	if st := b.State(); st != serve.StateReady {
		t.Fatalf("b = %v, want ready", st)
	}
	if got := sup.ServerInfo().Parks; got != 1 {
		t.Fatalf("Parks = %d, want 1", got)
	}
	// Query the evicted instance: it unparks transparently, wins the
	// budget (it is the loading instance), and b gets parked instead.
	res, err := sup.Run(context.Background(), "a", pullQuery(4))
	if err != nil {
		t.Fatalf("run on parked a: %v", err)
	}
	assertPins(t, res)
	if st := a.State(); st != serve.StateReady {
		t.Fatalf("a after unpark = %v, want ready", st)
	}
	if st := b.State(); st != serve.StateParked {
		t.Fatalf("b after a's unpark = %v, want parked", st)
	}
	if got := sup.ServerInfo().Parks; got != 2 {
		t.Fatalf("Parks = %d, want 2", got)
	}
}

// TestSupervisorEvictionSparesBusyAndQueued pins the eviction sweep's
// safety contract: busy and queued instances are never parked, even when
// the fleet overshoots the budget — overshoot beats canceling work.
func TestSupervisorEvictionSparesBusyAndQueued(t *testing.T) {
	sup := serve.NewSupervisor()
	cfg := fbConfig()
	cfg.MaxConcurrent = 1
	a, err := sup.Load("a", cfg)
	if err != nil {
		t.Fatalf("load a: %v", err)
	}
	// Occupy a's only slot and park one more run in its queue.
	release, join := occupy(t, a, 2)
	queued := make(chan error, 1)
	go func() {
		_, err := a.Run(context.Background(), pullQuery(2))
		queued <- err
	}()
	waitQueued(t, a, 1)

	// A budget this tight demands evicting a — but a is busy with a
	// queued follower, so the sweep must leave it alone and overshoot.
	// A *new* load is a different matter: the server is over budget with
	// nothing evictable, so admission browns out with the typed shed
	// error instead of piling on another snapshot (shed.go).
	sup.SetMemBudget(1)
	if _, err := sup.Load("b", fbConfig()); !errors.Is(err, serve.ErrBrownout) {
		t.Fatalf("load b under brownout: err = %v, want ErrBrownout", err)
	}
	if st := a.State(); st != serve.StateBusy {
		t.Fatalf("a during sweep = %v, want busy (never evicted)", st)
	}
	if a.MemBytes() == 0 {
		t.Fatal("a lost its snapshot while busy")
	}
	if got := sup.ServerInfo().Parks; got != 0 {
		t.Fatalf("Parks = %d, want 0 (nothing evictable)", got)
	}

	close(release)
	join()
	if err := <-queued; err != nil {
		t.Fatalf("queued run on a: %v", err)
	}
}

// TestSupervisorRecoveryLazy is the in-process crash-stop drill: load and
// query through a supervisor with a manifest store, drop the supervisor
// without any shutdown (the kill -9 analogue — only the state dir
// survives), recover into a fresh supervisor lazily, and assert the
// instance comes back parked and serves bit-identical pins on first query.
func TestSupervisorRecoveryLazy(t *testing.T) {
	dir := t.TempDir()
	ms, err := serve.NewManifestStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sup1 := serve.NewSupervisor()
	sup1.SetManifestStore(ms)
	if _, err := sup1.Load("fb", fbConfig()); err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := sup1.Run(context.Background(), "fb", pullQuery(4))
	if err != nil {
		t.Fatalf("pre-crash run: %v", err)
	}
	assertPins(t, res)
	// Crash-stop: sup1 is abandoned, no Stop, no Shutdown.

	ms2, err := serve.NewManifestStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sup2 := serve.NewSupervisor()
	sup2.SetManifestStore(ms2)
	rep := sup2.Recover(false)
	if len(rep.Restored) != 1 || rep.Restored[0] != "fb" {
		t.Fatalf("Restored = %v, want [fb]", rep.Restored)
	}
	if len(rep.Skipped) != 0 || len(rep.Failed) != 0 {
		t.Fatalf("recovery report = %+v, want clean", rep)
	}
	inst, err := sup2.Get("fb")
	if err != nil {
		t.Fatal(err)
	}
	if st := inst.State(); st != serve.StateParked {
		t.Fatalf("recovered state = %v, want parked (lazy)", st)
	}
	if !sup2.Healthy() {
		t.Fatal("supervisor with parked recovered instance reports unhealthy")
	}
	for _, w := range []int{1, 4} {
		res, err := sup2.Run(context.Background(), "fb", pullQuery(w))
		if err != nil {
			t.Fatalf("post-recovery run (workers=%d): %v", w, err)
		}
		assertPins(t, res)
	}
}

// TestSupervisorRecoveryEager recovers with eager snapshot rebuilds: the
// instance comes back ready with a resident snapshot and pinned bits.
func TestSupervisorRecoveryEager(t *testing.T) {
	dir := t.TempDir()
	ms, err := serve.NewManifestStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sup1 := serve.NewSupervisor()
	sup1.SetManifestStore(ms)
	if _, err := sup1.Load("fb", fbConfig()); err != nil {
		t.Fatalf("load: %v", err)
	}

	sup2 := serve.NewSupervisor()
	sup2.SetManifestStore(ms)
	rep := sup2.Recover(true)
	if len(rep.Restored) != 1 {
		t.Fatalf("Restored = %v, want [fb]", rep.Restored)
	}
	inst, err := sup2.Get("fb")
	if err != nil {
		t.Fatal(err)
	}
	if st := inst.State(); st != serve.StateReady {
		t.Fatalf("eager-recovered state = %v, want ready", st)
	}
	if inst.MemBytes() == 0 {
		t.Fatal("eager recovery left no resident snapshot")
	}
	res, err := sup2.Run(context.Background(), "fb", pullQuery(4))
	if err != nil {
		t.Fatalf("post-recovery run: %v", err)
	}
	assertPins(t, res)
}

// TestSupervisorRecoverySkipsBadManifests mixes a good manifest with a
// corrupt one and a version-skewed one: recovery restores the good
// instance and reports the rest loudly — never fatally.
func TestSupervisorRecoverySkipsBadManifests(t *testing.T) {
	dir := t.TempDir()
	ms, err := serve.NewManifestStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*serve.Manifest{
		{Name: "good", Dataset: "fb-sim", Ranks: 4},
		{Name: "torn", Dataset: "fb-sim", Ranks: 4},
		{Name: "future", Dataset: "fb-sim", Ranks: 4},
	} {
		if err := ms.Save(m); err != nil {
			t.Fatal(err)
		}
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"torn":   func(b []byte) []byte { b[20] ^= 1; return b },
		"future": func(b []byte) []byte { b[8] = 42; return b },
	} {
		raw, err := os.ReadFile(ms.Path(name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ms.Path(name), mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	sup := serve.NewSupervisor()
	sup.SetManifestStore(ms)
	rep := sup.Recover(false)
	if len(rep.Restored) != 1 || rep.Restored[0] != "good" {
		t.Fatalf("Restored = %v, want [good]", rep.Restored)
	}
	if len(rep.Skipped) != 2 {
		t.Fatalf("Skipped = %v, want 2 typed errors", rep.Skipped)
	}
	var corrupt, skewed int
	for _, me := range rep.Skipped {
		switch {
		case errors.Is(me, serve.ErrManifestVersion):
			skewed++
		case errors.Is(me, serve.ErrManifestCorrupt):
			corrupt++
		}
	}
	if corrupt != 1 || skewed != 1 {
		t.Fatalf("skipped classes: corrupt=%d skewed=%d, want 1 and 1", corrupt, skewed)
	}
	res, err := sup.Run(context.Background(), "good", pullQuery(4))
	if err != nil {
		t.Fatalf("run on recovered instance: %v", err)
	}
	assertPins(t, res)
}

// TestSupervisorStopForgetsManifest asserts the one transition that drops
// durable state: an explicit Stop removes the manifest, so the instance
// does not resurrect on the next recovery.
func TestSupervisorStopForgetsManifest(t *testing.T) {
	ms := testStore(t)
	sup := serve.NewSupervisor()
	sup.SetManifestStore(ms)
	if _, err := sup.Load("fb", fbConfig()); err != nil {
		t.Fatalf("load: %v", err)
	}
	if all, _ := ms.LoadAll(); len(all) != 1 {
		t.Fatalf("manifest count after load = %d, want 1", len(all))
	}
	if err := sup.Stop("fb"); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if all, _ := ms.LoadAll(); len(all) != 0 {
		t.Fatal("manifest survives explicit Stop")
	}
	sup2 := serve.NewSupervisor()
	sup2.SetManifestStore(ms)
	if rep := sup2.Recover(false); len(rep.Restored) != 0 {
		t.Fatalf("stopped instance resurrected: %v", rep.Restored)
	}
}

// TestSupervisorShutdownJoinsStuckInstances wedges runs on two instances
// and asserts an expired Shutdown reports *both* by name through the
// joined error, not just the first.
func TestSupervisorShutdownJoinsStuckInstances(t *testing.T) {
	sup := serve.NewSupervisor()
	releases := make([]chan struct{}, 0, 2)
	joins := make([]func(), 0, 2)
	for _, name := range []string{"stuck-a", "stuck-b"} {
		inst, err := sup.Load(name, fbConfig())
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		release, join := occupy(t, inst, 2)
		releases, joins = append(releases, release), append(joins, join)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := sup.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded", err)
	}
	for _, name := range []string{"stuck-a", "stuck-b"} {
		if !strings.Contains(err.Error(), fmt.Sprintf("instance %q", name)) {
			t.Errorf("Shutdown error does not name %s: %v", name, err)
		}
	}
	for _, release := range releases {
		close(release)
	}
	for _, join := range joins {
		join()
	}
}
