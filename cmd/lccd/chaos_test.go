package main

// The daemon chaos campaign: seeded and randomized, against a REAL daemon —
// serving real HTTP, with a real state directory and a real graph disk
// cache — rather than an in-process supervisor (that layer is
// internal/serve's TestChaosSupervisorStorm). A deterministic prologue is
// the restart-recovery lane: kill -9, reboot, and before any query /v1/ps
// must list fb with server.states["parked"] == 1, then the golden query
// must pin. Each cycle then draws one hazard from the schedule:
//
//   - kill-restart: SIGKILL (no drain, no goodbye) and reboot from the
//     state dir; the fleet must recover and the golden query must return
//     bit-identical results through the transparent reload.
//   - manifest corruption: flip a random byte in a random .lcm file,
//     then kill-restart; the daemon must boot (corrupt manifests are
//     skipped loudly, never fatal) and the instance is re-loaded if the
//     corrupted manifest was its only record.
//   - cache corruption: flip a random byte in a random .lcg graph-cache
//     file, then kill-restart; the rebuild must treat the damaged file
//     as a cache miss and regenerate, still producing golden bits.
//   - storm: concurrent golden queries, tiny-deadline queries, loads and
//     stops of a second instance, and ps polls, all at once; afterwards
//     the instance's Served counter must have moved by exactly the
//     number of 200 replies observed (no lost or duplicated runs).
//   - wedge-stall: a query carrying a wedge fault parks one rank
//     forever; the run watchdog must force-cancel it with a typed 500
//     "stalled", and stop + reload must restore golden service.
//
// Standing invariants, checked every cycle: the daemon answers /v1/ps;
// every successful run is bit-identical to the first golden reading; and
// every rejection carries a machine-readable nonempty "reason" — chaos
// may degrade service, never un-type it.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// chaosRNG is a splitmix64 stream: the same seed always replays the same
// campaign, which is what makes a chaos failure debuggable.
type chaosRNG struct{ s uint64 }

func (r *chaosRNG) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	x := r.s
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (r *chaosRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// TestDaemonChaos is the seed-1 campaign: 20 cycles, 5 under -short.
func TestDaemonChaos(t *testing.T) {
	const seed = 1
	cycles := 20
	if testing.Short() {
		cycles = 5
	}
	d := startDaemon(t)
	if err := d.loadFB(); err != nil {
		t.Fatal(err)
	}
	golden, err := d.run()
	if err != nil {
		t.Fatalf("golden reading: %v", err)
	}
	t.Logf("golden: triangles=%d score_bits=%#x", golden.Triangles, golden.ScoreBits)
	if golden.Triangles == 0 {
		t.Fatal("golden run returned no triangles")
	}

	// Prologue: crash-stop, and the manifest on disk is the only record the
	// instance ever existed.
	d.kill()
	if err := d.boot(); err != nil {
		t.Fatal(err)
	}
	ps, err := d.ps()
	if err != nil {
		t.Fatal(err)
	}
	state, _, ok := ps.instance("fb")
	if !ok {
		t.Fatalf("ps after restart does not list instance fb: %+v", ps.Instances)
	}
	if got := ps.Server.States["parked"]; got != 1 {
		t.Fatalf("server.states[parked] = %d, want 1 (states %v)", got, ps.Server.States)
	}
	t.Logf("prologue: recovered fb state=%s server states=%v", state, ps.Server.States)
	if _, err := d.run(); err != nil {
		t.Fatalf("prologue: first query after crash recovery: %v", err)
	}

	rng := &chaosRNG{s: seed}
	for cycle := 0; cycle < cycles; cycle++ {
		var err error
		var action string
		switch rng.intn(5) {
		case 0:
			action, err = "kill-restart", d.cycleKillRestart()
		case 1:
			action, err = "manifest-corrupt", d.cycleCorrupt(rng, d.stateDir, ".lcm")
		case 2:
			action, err = "cache-corrupt", d.cycleCorrupt(rng, d.cacheDir, ".lcg")
		case 3:
			action, err = "storm", d.cycleStorm(rng)
		case 4:
			action, err = "wedge-stall", d.cycleWedgeStall()
		}
		if err != nil {
			t.Fatalf("cycle %d (%s, seed %d): %v", cycle, action, seed, err)
		}
		if _, err := d.ps(); err != nil {
			t.Fatalf("cycle %d (%s): daemon unresponsive after cycle: %v", cycle, action, err)
		}
		t.Logf("cycle %d/%d ok (%s)", cycle+1, cycles, action)
	}

	// Final verification and a clean goodbye.
	if _, err := d.run(); err != nil {
		t.Fatalf("final golden query: %v", err)
	}
	if err := d.term(); err != nil {
		t.Fatalf("SIGTERM drain after the campaign: %v\n%s", err, d.out)
	}
}

// checkTyped enforces the every-rejection-is-typed invariant: any
// non-2xx reply must carry a nonempty machine-readable reason.
func checkTyped(path string, status int, m map[string]any) error {
	if status >= 200 && status < 300 {
		return nil
	}
	reason, _ := m["reason"].(string)
	if reason == "" {
		return fmt.Errorf("%s: untyped rejection: status %d body %v", path, status, m)
	}
	return nil
}

// loadFB loads the golden instance: fb-sim over 4 ranks with queueing
// and a stall watchdog, the same shape the pinned tests use. A 409
// (already running) is fine on re-load paths.
func (d *daemon) loadFB() error {
	status, m, err := d.post("/v1/load", loadFB)
	if err != nil {
		return err
	}
	if status != http.StatusOK && status != http.StatusConflict {
		return fmt.Errorf("load fb: status %d: %v", status, m)
	}
	return nil
}

// recoverFB makes the golden instance serveable again after a restart:
// if the manifest survived, fb is already recovered (parked) and the
// load 409s; if the manifest was the corruption victim, fb is gone and
// the load recreates it. Either way the golden query must then pin.
func (d *daemon) recoverFB() error {
	if err := d.loadFB(); err != nil {
		return err
	}
	_, err := d.run()
	return err
}

// cycleKillRestart is the plain crash-stop drill.
func (d *daemon) cycleKillRestart() error {
	d.kill()
	if err := d.boot(); err != nil {
		return err
	}
	return d.recoverFB()
}

// cycleCorrupt flips one random byte in one random file with the given
// extension, then kill-restarts: the daemon must boot regardless, and
// golden service must be restored (skip-loudly for manifests, cache-miss
// regeneration for graph cache files).
func (d *daemon) cycleCorrupt(rng *chaosRNG, dir, ext string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var victims []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ext) {
			victims = append(victims, filepath.Join(dir, e.Name()))
		}
	}
	if len(victims) > 0 {
		victim := victims[rng.intn(len(victims))]
		raw, err := os.ReadFile(victim)
		if err != nil {
			return err
		}
		if len(raw) > 0 {
			raw[rng.intn(len(raw))] ^= 1 << uint(rng.intn(8))
			if err := os.WriteFile(victim, raw, 0o644); err != nil {
				return err
			}
		}
	}
	return d.cycleKillRestart()
}

// cycleWedgeStall sends a run whose fault schedule parks rank 0 forever
// at its 40th issue point. The watchdog must force-cancel it as a typed
// 500 "stalled"; the instance is then unhealthy by design, and stop +
// re-load must restore golden service.
func (d *daemon) cycleWedgeStall() error {
	status, m, err := d.post("/v1/run",
		`{"instance":"fb","method":"hybrid","faults":"wedge=0:40","timeout_ms":120000}`)
	if err != nil {
		return err
	}
	if status != http.StatusInternalServerError {
		return fmt.Errorf("wedged run: status %d (want 500): %v", status, m)
	}
	if reason, _ := m["reason"].(string); reason != "stalled" {
		return fmt.Errorf("wedged run: reason %q (want stalled): %v", reason, m)
	}
	// The stall flipped fb unhealthy; recovery over the API is stop+load.
	if status, m, err := d.post("/v1/stop", `{"instance":"fb"}`); err != nil {
		return err
	} else if status != http.StatusOK {
		return fmt.Errorf("stop after stall: status %d: %v", status, m)
	}
	return d.recoverFB()
}

// cycleStorm fires concurrent traffic — golden queries, tiny-deadline
// queries, loads/stops of a second instance, ps polls — and then settles
// the books: every reply typed, every 200 bit-identical, and fb's Served
// counter moved by exactly the number of 200 run replies (no lost or
// duplicated runs).
func (d *daemon) cycleStorm(rng *chaosRNG) error {
	before, err := d.ps()
	if err != nil {
		return err
	}
	_, servedBefore, ok := before.instance("fb")
	if !ok {
		return errors.New("storm: fb missing from ps")
	}

	const shots = 10
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ok200    int64
		failures []error
	)
	fail := func(err error) {
		mu.Lock()
		failures = append(failures, err)
		mu.Unlock()
	}
	served := func() {
		mu.Lock()
		ok200++
		mu.Unlock()
	}
	// typed posts one request whose rejection is acceptable as long as it
	// is typed, and reports whether it drew a 200.
	typed := func(path, body string) bool {
		status, m, err := d.post(path, body)
		if err == nil {
			err = checkTyped(path, status, m)
		}
		if err != nil {
			fail(err)
		}
		return err == nil && status == http.StatusOK
	}
	for i := 0; i < shots; i++ {
		kind := rng.intn(4)
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch kind {
			case 0: // golden query: 200 with golden bits, or typed overflow
				status, raw, err := d.do(http.MethodPost, "/v1/run", runFB)
				if err != nil {
					fail(err)
					return
				}
				if status == http.StatusOK {
					var res runResult
					if err := json.Unmarshal(raw, &res); err != nil {
						fail(fmt.Errorf("storm run decode: %w", err))
					} else if res != *d.golden {
						fail(fmt.Errorf("storm run bits drifted: %+v", res))
					} else {
						served()
					}
					return
				}
				var m map[string]any
				_ = json.Unmarshal(raw, &m) // an undecodable body has no reason: checkTyped reports it
				if err := checkTyped("/v1/run", status, m); err != nil {
					fail(err)
				}
			case 1: // tiny deadline: 200 (if it squeaked through) or typed 4xx/5xx
				if typed("/v1/run", `{"instance":"fb","method":"hybrid","timeout_ms":1}`) {
					served()
				}
			case 2: // load/stop churn on a second instance
				typed("/v1/load", `{"name":"fb2","dataset":"fb-sim","ranks":2,"max_concurrent":1,"stall_timeout_ms":2000}`)
				typed("/v1/stop", `{"instance":"fb2"}`)
			case 3: // observer
				if _, err := d.ps(); err != nil {
					fail(err)
				}
			}
		}()
	}
	wg.Wait()
	if len(failures) > 0 {
		return errors.Join(failures...)
	}

	after, err := d.ps()
	if err != nil {
		return err
	}
	_, servedAfter, ok := after.instance("fb")
	if !ok {
		return errors.New("storm: fb missing from ps after the storm")
	}
	if got := servedAfter - servedBefore; got != ok200 {
		return fmt.Errorf("storm: served counter moved %d, but %d runs returned 200 — lost or duplicated runs", got, ok200)
	}
	return nil
}
