package serve_test

// The lifecycle table, held from both sides: DESIGN.md §8 prints it, and a
// reference model built from it predicts what an instance does under a
// seeded random op sequence.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/lcc"
	"repro/internal/sched"
	"repro/internal/serve"
)

// TestLifecycleTableMatchesDesign parses the from | on | to table of
// DESIGN.md §8 and holds it equal to the table toLocked checks: an edge
// added to or removed from either side alone fails here.
func TestLifecycleTableMatchesDesign(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "### The lifecycle state machine\n")
	if !ok {
		t.Fatal("DESIGN.md has no lifecycle section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	doc := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.Trim(line, "| "), "|")
		if !strings.HasPrefix(line, "|") || len(cells) != 3 || strings.HasPrefix(cells[0], "from") || strings.HasPrefix(cells[0], "-") {
			continue
		}
		for _, from := range strings.Split(cells[0], ",") {
			doc[strings.TrimSpace(from)+" → "+strings.TrimSpace(cells[2])] = true
		}
	}
	code := map[string]bool{}
	for from, tos := range serve.Edges() {
		for _, to := range tos {
			code[from.String()+" → "+to.String()] = true
		}
	}
	if len(doc) == 0 {
		t.Fatal("parsed no rows out of DESIGN.md §8's table")
	}
	for e := range doc {
		if !code[e] {
			t.Errorf("DESIGN.md §8 lists %s, the code's table does not", e)
		}
	}
	for e := range code {
		if !doc[e] {
			t.Errorf("the code's table allows %s, DESIGN.md §8 does not list it", e)
		}
	}
}

// model is the reference: what one instance must report after each op,
// given only the edge table and the op's documented contract. Ops run one
// at a time, so between ops no run is in flight and the stored state is
// the visible one.
type model struct {
	t       *testing.T
	state   serve.State
	started bool
	loads   bool // the config names a dataset that exists
	ctr     serve.Counters
	taken   map[[2]serve.State]bool // edges moved along, shared by a test's models
}

// to moves the model along an edge; an op contract that needs an edge the
// table lacks is a failure of the table, not of the instance.
func (m *model) to(s serve.State) {
	if !slices.Contains(serve.Edges()[m.state], s) {
		m.t.Fatalf("model: op needs edge %v → %v, which the table lacks", m.state, s)
	}
	m.taken[[2]serve.State{m.state, s}] = true
	m.state = s
}

// load is any way into a load: to loading unless there (the first Start),
// then to ready or unhealthy. It returns whether the load succeeds.
func (m *model) load() bool {
	if m.state != serve.StateLoading {
		m.to(serve.StateLoading)
	}
	m.started = true
	if m.loads {
		m.to(serve.StateReady)
	} else {
		m.to(serve.StateUnhealthy)
	}
	return m.loads
}

// admit predicts a run's admission: the typed rejection, or nil with the
// model moved to ready (through an unpark when parked).
func (m *model) admit() error {
	switch m.state {
	case serve.StateLoading:
		return serve.ErrNotReady
	case serve.StateUnhealthy:
		return serve.ErrUnhealthy
	case serve.StateExited:
		return serve.ErrInstanceExited
	case serve.StateParked:
		m.load()
	}
	return nil
}

func (m *model) reload() (rejected error, loaded bool) {
	switch {
	case m.state == serve.StateExited:
		return serve.ErrInstanceExited, false
	case !m.started:
		return serve.ErrNotReady, false
	}
	return nil, m.load()
}

func (m *model) park() error {
	switch m.state {
	case serve.StateExited:
		return serve.ErrInstanceExited
	case serve.StateParked:
		return nil
	case serve.StateReady:
		m.to(serve.StateParked)
		return nil
	}
	return serve.ErrNotReady
}

// sum is every run the counters account for.
func sum(c serve.Counters) int64 {
	return c.Served + c.Canceled + c.Panicked + c.Failed + c.Rejected + c.TimedOut + c.Stalled
}

// TestLifecycleModel drives seeded random op sequences — start, failed
// start, run, blocked run + cancel, park, reload, scrub after corruption of
// each section, panic query, wedge query, stop — against instance and model
// together. After every op the state and the counters must equal the
// model's, every rejection must be the typed error the model predicts, the
// counters must sum to the runs issued, and every recovery must serve the
// golden pins. Between them the seeds (fixed, and picked so that they do)
// must move along every edge of the table: one no op contract can take has
// no business in it.
func TestLifecycleModel(t *testing.T) {
	const ops = 25 // per seed: ~2 s in all, ~15 s under -race, and the stress lane repeats it
	c := &campaign{taken: map[[2]serve.State]bool{}}
	for _, seed := range []uint64{1, 5, 8, 21} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := &chaosSplitmix{s: seed}
			d := newModelDriver(t, rng.intn(6) != 0, c)
			for i := 0; i < ops; i++ {
				if d.m.state == serve.StateExited && rng.intn(2) == 0 {
					d = newModelDriver(t, rng.intn(6) != 0, c)
				}
				d.step(rng)
				if t.Failed() {
					t.Fatalf("op %d (%s) diverged from the model", i, d.last)
				}
			}
		})
	}
	for from, tos := range serve.Edges() {
		for _, to := range tos {
			if !c.taken[[2]serve.State{from, to}] {
				t.Errorf("no seed moved along %v → %v", from, to)
			}
		}
	}
}

// campaign is what the instances of one test share: the edges their models
// took, and a scrub count so that every section gets its turn.
type campaign struct {
	taken  map[[2]serve.State]bool
	scrubs int
}

type modelDriver struct {
	t      *testing.T
	c      *campaign
	inst   *serve.Instance
	m      *model
	issued int64 // runs that reached admission's slot logic
	last   string
}

func newModelDriver(t *testing.T, loads bool, c *campaign) *modelDriver {
	cfg := serve.Config{Dataset: "fb-sim", Ranks: 4, StallTimeout: 200 * time.Millisecond}
	if !loads {
		cfg.Dataset = "no-such-dataset"
	}
	return &modelDriver{t: t, c: c, inst: serve.NewInstance("model", cfg),
		m: &model{t: t, state: serve.StateLoading, loads: loads, taken: c.taken}}
}

// want fails the test unless got is the predicted typed error: nil for nil,
// a *sched.PanicError for one, errors.Is otherwise.
func (d *modelDriver) want(what string, got, predicted error) {
	d.t.Helper()
	var pe *sched.PanicError
	if errors.As(predicted, &pe) {
		if errors.As(got, &pe) {
			return
		}
	} else if errors.Is(got, predicted) {
		return
	}
	d.t.Errorf("%s: err = %v, model predicts %v", what, got, predicted)
}

// run issues q and files its outcome in the model: outcome is the error
// class a run admitted to a ready instance ends in (nil: served, pins
// checked), fails says that outcome takes the instance unhealthy.
func (d *modelDriver) run(what string, q serve.Query, outcome error, fails bool) {
	d.t.Helper()
	rejected := d.m.admit()
	res, err := d.inst.Run(context.Background(), q)
	if rejected != nil {
		d.want(what, err, rejected)
		return
	}
	d.issued++
	d.want(what, err, outcome)
	switch {
	case outcome == nil:
		d.m.ctr.Served++
		if err == nil {
			assertPins(d.t, res)
		}
	case errors.Is(outcome, serve.ErrStalled):
		d.m.ctr.Stalled++
	case errors.Is(outcome, sched.ErrRunCanceled):
		d.m.ctr.Canceled++
	default:
		d.m.ctr.Panicked++
	}
	if fails {
		d.m.to(serve.StateUnhealthy)
	}
}

func (d *modelDriver) step(rng *chaosSplitmix) {
	op := rng.intn(16)
	// Half the time, lean toward serving: an instance never started or left
	// unhealthy rejects nearly every op the same way.
	if lean := rng.intn(2) == 0; lean && !d.m.started {
		op = 0
	} else if lean && d.m.state == serve.StateUnhealthy {
		op = 9
	}
	switch {
	case op < 2:
		d.last = "start"
		switch {
		case d.m.state == serve.StateExited:
			d.want("Start", d.inst.Start(), serve.ErrInstanceExited)
		case d.m.started:
			d.want("Start", d.inst.Start(), serve.ErrAlreadyRunning)
		default:
			if err := d.inst.Start(); (err == nil) != d.m.load() {
				d.t.Errorf("Start: err = %v, model predicts success = %v", err, d.m.loads)
			}
		}
	case op < 5:
		d.last = "run"
		d.run("run", pullQuery(2), nil, false)
	case op < 7:
		d.last = "blocked run + cancel"
		d.blockedRun()
	case op < 9:
		d.last = "park"
		d.want("Park", d.inst.Park(), d.m.park())
	case op < 11:
		d.last = "reload"
		rejected, loaded := d.m.reload()
		err := d.inst.Reload()
		if rejected != nil {
			d.want("Reload", err, rejected)
		} else if (err == nil) != loaded {
			d.t.Errorf("Reload: err = %v, model predicts success = %v", err, loaded)
		} else if loaded {
			d.run("run after reload", pullQuery(2), nil, false)
		}
	case op < 13:
		d.last = "scrub"
		d.scrub([]string{lcc.SectionIndex, lcc.SectionOffsets, lcc.SectionAdjacency, lcc.SectionResolve}[d.c.scrubs%4], rng.intn(4))
	case op < 14:
		d.last = "panic query"
		var reads int64
		q := pullQuery(2)
		q.Options.OnRemoteRead = func(int, graph.V) {
			if atomic.AddInt64(&reads, 1) == 300 {
				panic("injected worker bug")
			}
		}
		d.run("panic query", q, &sched.PanicError{}, true)
	case op < 15:
		d.last = "wedge query"
		d.run("wedge query", wedgeQuery(2), serve.ErrStalled, true)
	default:
		d.last = "stop"
		if d.m.state == serve.StateExited {
			d.want("Stop", d.inst.Stop(), serve.ErrInstanceExited)
		} else {
			d.want("Stop", d.inst.Stop(), nil)
			d.m.to(serve.StateExited)
		}
	}
	if got := d.inst.State(); got != d.m.state {
		d.t.Errorf("state = %v, model predicts %v", got, d.m.state)
	}
	ctr := d.inst.Info().Counters
	if ctr != d.m.ctr {
		d.t.Errorf("counters = %+v, model predicts %+v", ctr, d.m.ctr)
	}
	if sum(ctr) != d.issued {
		d.t.Errorf("counters account for %d runs, %d were issued: lost or duplicated", sum(ctr), d.issued)
	}
}

// blockedRun holds a run in its first remote read and walks the rejections
// a busy instance owes — Park, Reload, an overflow run, the scrub
// precondition — then cancels it.
func (d *modelDriver) blockedRun() {
	if rejected := d.m.admit(); rejected != nil {
		_, err := d.inst.Run(context.Background(), pullQuery(2))
		d.want("blocked run", err, rejected)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q, entered, release := blockingQuery(2)
	done := make(chan error, 1)
	go func() {
		_, err := d.inst.Run(ctx, q)
		done <- err
	}()
	select {
	case <-entered:
	case err := <-done:
		d.t.Fatalf("blocked run ended before its first remote read: %v", err)
	}
	if st := d.inst.State(); st != serve.StateBusy {
		d.t.Errorf("state with a run in flight = %v, want busy", st)
	}
	d.want("Park while busy", d.inst.Park(), serve.ErrBusy)
	d.want("Reload while busy", d.inst.Reload(), serve.ErrBusy)
	d.want("CorruptResident while busy", d.inst.CorruptResident(0, lcc.SectionOffsets), serve.ErrNotReady)
	if checked, se, err := d.inst.Scrub(); checked || se != nil || err != nil {
		d.t.Errorf("Scrub while busy = %v, %v, %v, want skipped", checked, se, err)
	}
	_, err := d.inst.Run(context.Background(), pullQuery(2))
	d.want("overflow run", err, serve.ErrBusy)
	cancel()
	close(release)
	d.want("canceled run", <-done, sched.ErrRunCanceled)
	d.issued += 2
	d.m.ctr.Rejected++
	d.m.ctr.Canceled++
}

// scrub corrupts one section of a ready instance's snapshot (after a run,
// so the orientation index has entries to damage), sweeps, and requires the
// quarantine — named section, typed error, ready → loading → ready — and
// golden bits afterwards. Any other state has nothing to corrupt or check.
func (d *modelDriver) scrub(section string, rank int) {
	if d.m.state != serve.StateReady {
		d.want("CorruptResident", d.inst.CorruptResident(rank, section), serve.ErrNotReady)
		if checked, se, err := d.inst.Scrub(); checked || se != nil || err != nil {
			d.t.Errorf("Scrub in %v = %v, %v, %v, want skipped", d.m.state, checked, se, err)
		}
		return
	}
	d.c.scrubs++
	d.run("run before corruption", pullQuery(2), nil, false)
	if checked, se, err := d.inst.Scrub(); !checked || se != nil || err != nil {
		d.t.Errorf("Scrub of a clean snapshot = %v, %v, %v, want verified", checked, se, err)
	}
	d.want("CorruptResident", d.inst.CorruptResident(rank, section), nil)
	checked, se, err := d.inst.Scrub()
	if !checked || se == nil || err != nil {
		d.t.Fatalf("Scrub after corrupting %s = %v, %v, %v, want a quarantine and a clean reload", section, checked, se, err)
	}
	if !errors.Is(se, serve.ErrQuarantined) || se.Integrity.Section != section {
		d.t.Errorf("ScrubError = %v, want ErrQuarantined naming %s", se, section)
	}
	d.m.load()
	d.run("run after quarantine", pullQuery(2), nil, false)
}
