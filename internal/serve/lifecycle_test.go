package serve_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

// TestLifecycleTransitionEdges pins every rejected edge of the state
// machine to its typed error: no edge races, none hangs.
func TestLifecycleTransitionEdges(t *testing.T) {
	ctx := context.Background()
	inst := serve.NewInstance("edges", serve.Config{Dataset: "fb-sim", Ranks: 2})

	if _, err := inst.Run(ctx, pullQuery(1)); !errors.Is(err, serve.ErrNotReady) {
		t.Errorf("run before Start: err = %v, want ErrNotReady", err)
	}
	if err := inst.Reload(); !errors.Is(err, serve.ErrNotReady) {
		t.Errorf("Reload before Start: err = %v, want ErrNotReady", err)
	}
	if err := inst.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if st := inst.State(); st != serve.StateReady {
		t.Fatalf("state after Start = %v, want ready", st)
	}
	if err := inst.Start(); !errors.Is(err, serve.ErrAlreadyRunning) {
		t.Errorf("double Start: err = %v, want ErrAlreadyRunning", err)
	}
	if err := inst.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if st := inst.State(); st != serve.StateExited {
		t.Fatalf("state after Stop = %v, want exited", st)
	}
	if err := inst.Stop(); !errors.Is(err, serve.ErrInstanceExited) {
		t.Errorf("double Stop: err = %v, want ErrInstanceExited", err)
	}
	if _, err := inst.Run(ctx, pullQuery(1)); !errors.Is(err, serve.ErrInstanceExited) {
		t.Errorf("run on exited: err = %v, want ErrInstanceExited", err)
	}
	if err := inst.Reload(); !errors.Is(err, serve.ErrInstanceExited) {
		t.Errorf("Reload on exited: err = %v, want ErrInstanceExited", err)
	}
	if err := inst.Start(); !errors.Is(err, serve.ErrInstanceExited) {
		t.Errorf("Start after Stop: err = %v, want ErrInstanceExited", err)
	}
}

// TestLifecycleLoadFailure: a failing load leaves the instance unhealthy
// with the cause recorded, and Reload retries it.
func TestLifecycleLoadFailure(t *testing.T) {
	inst := serve.NewInstance("bad", serve.Config{Dataset: "no-such-dataset"})
	if err := inst.Start(); err == nil {
		t.Fatal("Start with unknown dataset succeeded")
	}
	if st := inst.State(); st != serve.StateUnhealthy {
		t.Fatalf("state = %v, want unhealthy", st)
	}
	if inst.Failure() == nil {
		t.Error("Failure() = nil after failed load")
	}
	if _, err := inst.Run(context.Background(), pullQuery(1)); !errors.Is(err, serve.ErrUnhealthy) {
		t.Errorf("run on unhealthy: err = %v, want ErrUnhealthy", err)
	}
	if err := inst.Reload(); err == nil {
		t.Error("Reload with unknown dataset succeeded")
	}
	if st := inst.State(); st != serve.StateUnhealthy {
		t.Fatalf("state after failed Reload = %v, want unhealthy", st)
	}
}

// TestLifecycleReloadDuringLoad: a Reload that lands while a query's unpark
// load is in flight is refused with ErrBusy. Before the lifecycle went
// through one transition function it started a second build, and that
// build's install put ready over the state of the run the first had
// admitted. The query blocks in its first remote read, so the run cannot
// drain before the Reload whichever side of the install it lands on; a
// round that never sees the loading window asserts only the busy view.
func TestLifecycleReloadDuringLoad(t *testing.T) {
	inst := fbInstance(t)
	windows := 0
	for round := 0; round < 10; round++ {
		if err := inst.Park(); err != nil {
			t.Fatalf("round %d: Park: %v", round, err)
		}
		q, entered, release := blockingQuery(2)
		done := make(chan error, 1)
		go func() {
			_, err := inst.Run(context.Background(), q)
			done <- err
		}()
		st := inst.State()
		for deadline := time.Now().Add(5 * time.Second); st == serve.StateParked && time.Now().Before(deadline); st = inst.State() {
			runtime.Gosched()
		}
		if st == serve.StateLoading {
			windows++
			if err := inst.Reload(); !errors.Is(err, serve.ErrBusy) {
				t.Errorf("round %d: Reload during the unpark load: err = %v, want ErrBusy", round, err)
			}
		}
		select {
		case <-entered:
		case err := <-done:
			t.Fatalf("round %d: query against parked instance: %v", round, err)
		}
		if info := inst.Info(); info.State != "busy" || info.Active != 1 {
			t.Errorf("round %d: run in flight reported as state=%s active=%d, want busy 1", round, info.State, info.Active)
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatalf("round %d: blocked run: %v", round, err)
		}
	}
	if windows == 0 {
		t.Skip("no round observed the loading window")
	}
}

// TestSupervisorFailedLoadRegistersNothing: a first load that fails
// leaves no instance behind — the fleet stays healthy and the corrected
// load of the same name is admitted, not refused as already running.
func TestSupervisorFailedLoadRegistersNothing(t *testing.T) {
	sup := serve.NewSupervisor()
	for _, bad := range []serve.Config{
		{Dataset: "no-such-dataset"},
		{Dataset: "fb-sim", Ranks: -3},
	} {
		if inst, err := sup.Load("x", bad); err == nil || inst != nil {
			t.Fatalf("Load(%+v) = %v, %v, want nil and an error", bad, inst, err)
		}
		if got := sup.List(); len(got) != 0 {
			t.Fatalf("failed load left %+v registered", got)
		}
		if !sup.Healthy() {
			t.Fatal("failed load left the fleet unhealthy")
		}
	}
	if _, err := sup.Load("x", serve.Config{Dataset: "fb-sim", Ranks: 4}); err != nil {
		t.Fatalf("corrected load of the same name: %v", err)
	}
}

// TestLifecycleUnknownEngine: a bad query fails the run, not the
// instance.
func TestLifecycleUnknownEngine(t *testing.T) {
	inst := fbInstance(t)
	if _, err := inst.Run(context.Background(), serve.Query{Engine: "bogus"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if st := inst.State(); st != serve.StateReady {
		t.Fatalf("state = %v, want ready", st)
	}
	if ctr := inst.Info().Counters; ctr.Failed != 1 {
		t.Errorf("counters = %+v, want Failed 1", ctr)
	}
}

// blockingQuery returns a query whose first remote read parks until
// release is closed, plus the channel signaling the run is in flight.
func blockingQuery(workers int) (q serve.Query, entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	q = pullQuery(workers)
	q.Options.OnRemoteRead = func(rank int, v graph.V) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	return q, entered, release
}

// TestLifecycleAdmissionControl: MaxConcurrent bounds in-flight runs;
// overflow is an immediate typed ErrBusy, and draining restores ready.
func TestLifecycleAdmissionControl(t *testing.T) {
	inst := serve.NewInstance("adm", serve.Config{Dataset: "fb-sim", Ranks: 4, MaxConcurrent: 1})
	if err := inst.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	q, entered, release := blockingQuery(4)
	errCh := make(chan error, 1)
	go func() {
		_, err := inst.Run(context.Background(), q)
		errCh <- err
	}()
	<-entered
	if st := inst.State(); st != serve.StateBusy {
		t.Fatalf("state with run in flight = %v, want busy", st)
	}
	if _, err := inst.Run(context.Background(), pullQuery(1)); !errors.Is(err, serve.ErrBusy) {
		t.Fatalf("overflow admission: err = %v, want ErrBusy", err)
	}
	close(release)
	if err := <-errCh; err != nil {
		t.Fatalf("blocked run: %v", err)
	}
	if st := inst.State(); st != serve.StateReady {
		t.Fatalf("state after drain = %v, want ready", st)
	}
	if ctr := inst.Info().Counters; ctr.Served != 1 || ctr.Rejected != 1 {
		t.Errorf("counters = %+v, want Served 1, Rejected 1", ctr)
	}
}

// TestSupervisorRegistry covers the named-instance surface the lccd
// server exposes: load, duplicate load, run, ps, stop, replace.
func TestSupervisorRegistry(t *testing.T) {
	ctx := context.Background()
	sup := serve.NewSupervisor()
	if _, err := sup.Run(ctx, "nope", pullQuery(1)); !errors.Is(err, serve.ErrUnknownInstance) {
		t.Errorf("run on unknown: err = %v, want ErrUnknownInstance", err)
	}
	cfg := serve.Config{Dataset: "fb-sim", Ranks: 4}
	if _, err := sup.Load("fb", cfg); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := sup.Load("fb", cfg); !errors.Is(err, serve.ErrAlreadyRunning) {
		t.Errorf("duplicate Load: err = %v, want ErrAlreadyRunning", err)
	}
	res, err := sup.Run(ctx, "fb", pullQuery(4))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertPins(t, res)
	infos := sup.List()
	if len(infos) != 1 || infos[0].Name != "fb" || infos[0].State != "ready" {
		t.Errorf("List = %+v, want one ready instance fb", infos)
	}
	if infos[0].Vertices == 0 || infos[0].Arcs == 0 {
		t.Errorf("List does not report graph size: %+v", infos[0])
	}
	if !sup.Healthy() {
		t.Error("Healthy() = false with one ready instance")
	}
	if err := sup.Stop("fb"); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if _, err := sup.Run(ctx, "fb", pullQuery(1)); !errors.Is(err, serve.ErrInstanceExited) {
		t.Errorf("run on stopped: err = %v, want ErrInstanceExited", err)
	}
	// An exited name is replaceable.
	if _, err := sup.Load("fb", cfg); err != nil {
		t.Fatalf("Load over exited: %v", err)
	}
	if err := sup.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestSupervisorShutdownDrains: shutdown fences new admissions at once
// and waits for in-flight runs up to the context deadline.
func TestSupervisorShutdownDrains(t *testing.T) {
	sup := serve.NewSupervisor()
	inst, err := sup.Load("fb", serve.Config{Dataset: "fb-sim", Ranks: 4})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	q, entered, release := blockingQuery(4)
	runErr := make(chan error, 1)
	go func() {
		_, err := inst.Run(context.Background(), q)
		runErr <- err
	}()
	<-entered

	// A drain bounded by a deadline that cannot be met reports it.
	short, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := sup.Shutdown(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with stuck run: err = %v, want DeadlineExceeded", err)
	}
	// The fence is already down: new runs are rejected.
	if _, err := inst.Run(context.Background(), pullQuery(1)); !errors.Is(err, serve.ErrInstanceExited) {
		t.Fatalf("run during drain: err = %v, want ErrInstanceExited", err)
	}
	// Release the run; a second drain completes cleanly.
	close(release)
	if err := <-runErr; err != nil {
		t.Fatalf("in-flight run after stop: %v", err)
	}
	if err := sup.Shutdown(context.Background()); err != nil {
		t.Fatalf("final Shutdown: %v", err)
	}
}
