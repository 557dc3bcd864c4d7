package serve

// Integrity scrubbing: the serving plane's defense against silent
// resident-memory corruption. Snapshots record per-rank CRC-32C over
// their adjacency, offset and resolve tables at build time
// (lcc/integrity.go); the scrubber re-verifies idle instances on a
// jittered period and, on a mismatch, quarantines the instance — an event,
// not a state: one critical section records the *ScrubError and takes the
// ready → loading edge, which discards the corrupt snapshot before another
// query can read it, and the rebuild is the one an unpark takes. Queries
// arriving meanwhile wait out the reload (admit's loading branch) or, when
// the reload itself fails, get the typed unhealthy error; no query ever
// computes over bits that failed their checksum.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/lcc"
)

// ErrQuarantined is the sentinel a scrub failure matches via errors.Is;
// the concrete *ScrubError names the corrupt rank and section.
var ErrQuarantined = errors.New("serve: instance quarantined")

// ScrubError reports a snapshot integrity failure: which instance was
// quarantined and the checksum mismatch (rank, section, want/got) that
// triggered it.
type ScrubError struct {
	Instance  string
	Integrity *lcc.IntegrityError
}

func (e *ScrubError) Error() string {
	return fmt.Sprintf("serve: instance %q quarantined: %v", e.Instance, e.Integrity)
}

func (e *ScrubError) Is(target error) bool { return target == ErrQuarantined }

// Unwrap exposes the underlying *lcc.IntegrityError to errors.As.
func (e *ScrubError) Unwrap() error { return e.Integrity }

// scrub verifies the instance's resident snapshot against its build-time
// checksums, if the instance is idle — ready, no runs in flight or
// queued. Busy, parked, loading and exited instances are skipped
// (checked=false — skipped, not failed: parked instances hold no bytes
// to corrupt, and a busy instance is re-checked on the next sweep). On a
// mismatch the instance is quarantined — failure records the *ScrubError
// and the move to loading drops the corrupt snapshot — and reloaded from
// its dataset source. The returned *ScrubError is non-nil exactly when
// corruption was found; err reports a reload that failed afterwards (the
// instance is then unhealthy with the reload cause).
func (inst *Instance) scrub() (checked bool, se *ScrubError, err error) {
	inst.mu.Lock()
	if inst.state != StateReady || !inst.idleLocked() {
		inst.mu.Unlock()
		return false, nil, nil
	}
	snap := inst.snap
	inst.mu.Unlock()

	// Verify outside the lock: the CRC sweep over a large snapshot takes
	// real time and everything it reads is immutable. An admission racing
	// in meanwhile is fine — it runs on bits that were checksummed-clean a
	// moment ago, exactly what it would have done had the sweep not run.
	verr := snap.Verify()
	if verr == nil {
		return true, nil, nil
	}
	var ie *lcc.IntegrityError
	if !errors.As(verr, &ie) {
		ie = &lcc.IntegrityError{Section: "unknown"}
	}
	se = &ScrubError{Instance: inst.name, Integrity: ie}

	inst.mu.Lock()
	if inst.snap != snap || !inst.idleLocked() {
		// Raced with a reload, park, stop or admission while verifying
		// (only a ready instance holds a snapshot, so the same snapshot
		// still installed means still ready).
		// The corruption (if the snapshot is even still installed) will be
		// re-detected on the next idle sweep; quarantining under a live
		// run would yank the state transitions out from under it.
		inst.mu.Unlock()
		return true, se, nil
	}
	// Auto-reload from the dataset source — the same rebuild path an
	// unpark takes. Success clears failure and restores ready; a failure
	// flips unhealthy with the load error, which the queries that waited
	// behind the quarantine then get.
	inst.failure = se
	return true, se, inst.loadLocked()
}

// ScrubStats aggregates the supervisor's scrub outcomes.
type ScrubStats struct {
	Sweeps       int64 `json:"sweeps"`        // completed full-fleet sweeps
	Verified     int64 `json:"verified"`      // snapshots that passed verification
	Quarantines  int64 `json:"quarantines"`   // corruption detections
	ReloadFailed int64 `json:"reload_failed"` // auto-reloads that failed (instance left unhealthy)
}

// scrubNow sweeps every registered instance once, synchronously:
// idle-ready instances are verified (and quarantined + reloaded on
// mismatch). It returns the names of instances quarantined during the
// sweep. The background Scrubber calls this on its period.
func (s *Supervisor) scrubNow() []string {
	var quarantined []string
	for _, inst := range s.fleet() {
		checked, se, err := inst.scrub()
		s.mu.Lock()
		switch {
		case se != nil:
			s.scrub.Quarantines++
			quarantined = append(quarantined, inst.Name())
		case checked:
			s.scrub.Verified++
		}
		if err != nil {
			s.scrub.ReloadFailed++
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.scrub.Sweeps++
	s.mu.Unlock()
	return quarantined
}

// Scrubber is the background integrity-scrubbing loop: a full-fleet
// scrubNow sweep on a jittered period (±25%, a fixed splitmix64 stream),
// so sweeps do not fall into step with other periodic work on the host.
type Scrubber struct {
	sup    *Supervisor
	period time.Duration
	stopC  chan struct{}
	done   chan struct{}
}

// StartScrubber starts the background loop; period <= 0 selects a
// minute. Stop the returned Scrubber before shutting the supervisor
// down.
func (s *Supervisor) StartScrubber(period time.Duration) *Scrubber {
	if period <= 0 {
		period = time.Minute
	}
	sc := &Scrubber{sup: s, period: period,
		stopC: make(chan struct{}), done: make(chan struct{})}
	go sc.loop()
	return sc
}

// splitmix64 mirrors the fault plane's mixer; the scrubber only needs a
// cheap deterministic jitter stream.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (sc *Scrubber) loop() {
	defer close(sc.done)
	for i := uint64(0); ; i++ {
		u := float64(splitmix64(i)>>11) / (1 << 53) // [0,1)
		d := time.Duration((0.75 + 0.5*u) * float64(sc.period))
		t := time.NewTimer(d)
		select {
		case <-sc.stopC:
			t.Stop()
			return
		case <-t.C:
		}
		sc.sup.scrubNow()
	}
}

// Stop terminates the loop and waits for an in-flight sweep to finish.
func (sc *Scrubber) Stop() {
	close(sc.stopC)
	<-sc.done
}
