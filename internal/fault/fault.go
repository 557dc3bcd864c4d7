// Package fault is the deterministic fault plane of the simulated machine:
// a seeded schedule of transient failures that the RMA substrate and the
// CLaMPI cache consult at their issue points, and recover from by charging
// simulated time — never by changing results.
//
// The paper's asynchronous design is pitched at 1024-rank clusters, where
// transient one-sided failures, latency spikes, stalled ranks and flaky
// cache state are the norm. The schedule makes that
// regime reproducible: every decision is a pure function of
// (seed, rank, channel, op-index, attempt) hashed through splitmix64, so a
// run under faults is bit-identical across replays, host schedules and
// worker counts — the same determinism contract the noise plane
// (rma.NoiseSpec) already obeys. Faults are charged as raw (unperturbed)
// clock advances: recovery is blocking, not work, so it neither stretches
// under noise nor consumes noise-RNG draws — which is what keeps a faulted
// run's SimTime deterministically ≥ the fault-free run's.
//
// The zero Spec (and a nil *Spec) disables the plane entirely: New returns
// nil and every consumer's per-op check is a single nil comparison.
package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Class identifies the one-sided operation class a fault decision applies
// to; each class draws from its own decision channel so enabling faults on
// one class does not reshuffle another's schedule.
type Class uint8

const (
	// ClassGet covers one-sided reads (GetInto), including the fetches
	// CLaMPI issues on a cache miss.
	ClassGet Class = 0
	// ClassAccumulate covers Accumulate and AccumulateBatch. Its value is
	// spelled out rather than counted by iota: Sched.u mixes the class
	// value into every failure draw, so renumbering a class reshuffles the
	// schedules its pinned runs were recorded under. 1 belonged to the
	// retired put class.
	ClassAccumulate Class = 2
)

// Decision channels beyond the op classes. Kept in the same keyspace so
// every draw in a rank's schedule has a distinct (channel, index, sub)
// coordinate.
const (
	chSpike   = 8 + iota // per-op latency spike (probability, magnitude)
	chStall              // rank stall windows
	chBackoff            // retry backoff jitter
	// Spelled out like ClassAccumulate: 11 was the retired p2p drop class.
	chCache = 12 // CLaMPI unavailability
)

// RetryPolicy bounds the recovery loop of a failed one-sided operation.
// The zero value selects the defaults.
type RetryPolicy struct {
	// MaxAttempts caps the retries of one operation; after MaxAttempts
	// failed attempts the next attempt is forced to succeed, so faults
	// cost simulated time but can never leak an error into results.
	// Default 8, hard cap 16.
	MaxAttempts int
	// TimeoutNS is the per-attempt timeout budget: the detection delay
	// charged before a failed attempt is declared lost and retried.
	// Default 25000 ns (≈ 12 α of the default model).
	TimeoutNS float64
	// BackoffBaseNS and BackoffMaxNS shape the capped exponential
	// backoff between attempts: attempt a sleeps
	// min(Base·2^a, Max) × (0.5 + u) with deterministic jitter u.
	// Defaults 2000 ns and 64000 ns.
	BackoffBaseNS float64
	BackoffMaxNS  float64
}

const maxAttemptsCap = 16

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.MaxAttempts > maxAttemptsCap {
		p.MaxAttempts = maxAttemptsCap
	}
	if p.TimeoutNS <= 0 {
		p.TimeoutNS = 25000
	}
	if p.BackoffBaseNS <= 0 {
		p.BackoffBaseNS = 2000
	}
	if p.BackoffMaxNS < p.BackoffBaseNS {
		p.BackoffMaxNS = 64000
		if p.BackoffMaxNS < p.BackoffBaseNS {
			p.BackoffMaxNS = p.BackoffBaseNS
		}
	}
	return p
}

// Spec describes a fault schedule. All probabilities are per-decision in
// [0, 1). The zero value injects nothing and keeps the plane disabled at
// zero cost.
type Spec struct {
	// Seed keys every decision of the schedule; two runs with equal
	// specs replay the same faults everywhere.
	Seed uint64

	// GetFailPct and AccFailPct are the per-attempt transient failure
	// probabilities of remote one-sided operations by class.
	GetFailPct float64
	AccFailPct float64

	// SpikePct injects a latency spike on a remote op's successful
	// attempt with the given probability; the op is delayed by
	// SpikeNS × (0.5 + u) ns, absorbed within the timeout budget.
	SpikePct float64
	SpikeNS  float64

	// StallPeriodOps opens a rank stall window every that many remote
	// ops (0 disables): the rank blocks for StallNS × (0.5 + u) ns —
	// modeled OS jitter, GC, or a wedged progress engine.
	StallPeriodOps int
	StallNS        float64

	// CacheFailPct is the per-access probability the CLaMPI cache is
	// transiently unavailable: resident entries are flushed and the
	// access degrades to the direct-RMA fetch flavor.
	CacheFailPct float64

	// CrashAtOp arms the crash-stop class: rank CrashRank dies at its
	// CrashAtOp-th remote one-sided operation (1-based; 0 disables the
	// class). Unlike the probabilistic classes the crash is a scheduled
	// event — it fires exactly once, at a deterministic op index, which is
	// what makes both recovery modes pinnable. With CrashRecover false the
	// run fails fast with a deterministic *CrashError; with it true the
	// rank restarts (CrashRestartNS) and re-executes from its last barrier
	// — charged as blocked simulated time, never actually re-run, so the
	// fault-free charge and draw sequence embeds verbatim in the recovered
	// run and results stay bit-identical (DESIGN.md §8).
	CrashAtOp      int
	CrashRank      int
	CrashRecover   bool
	CrashRestartNS float64 // modeled restart delay; default 5e6 ns

	// WedgeAtOp arms the wedge class: rank WedgeRank parks forever at its
	// WedgeAtOp-th remote one-sided operation (1-based; 0 disables the
	// class). Unlike every other class there is no in-run recovery — the
	// rank stops issuing operations and stops reaching checkpoints, so the
	// run can only end through an external cancel (a caller deadline or
	// the serve watchdog). This is the schedule for a host-side hang: a
	// deadlocked lock, a stuck syscall, a livelocked progress engine. Like
	// the crash-stop it is a scheduled event that fires exactly once at a
	// deterministic op index.
	WedgeAtOp int
	WedgeRank int

	// Retry bounds the recovery loops; zero value = defaults.
	Retry RetryPolicy
}

// Enabled reports whether the spec can inject any fault at all.
func (s Spec) Enabled() bool {
	return s.GetFailPct > 0 || s.AccFailPct > 0 ||
		(s.SpikePct > 0 && s.SpikeNS > 0) ||
		(s.StallPeriodOps > 0 && s.StallNS > 0) ||
		s.CacheFailPct > 0 || s.CrashAtOp > 0 ||
		s.WedgeAtOp > 0
}

func (s Spec) withDefaults() Spec {
	s.Retry = s.Retry.withDefaults()
	if s.CrashRestartNS <= 0 {
		s.CrashRestartNS = 5e6
	}
	return s
}

// CrashError is the deterministic failure of a crash-stop without
// recovery: rank Rank died at its Op-th remote one-sided operation. The
// same spec produces the same error at any worker count and under either
// charge-fold schedule.
type CrashError struct {
	Rank int
	Op   int // 1-based remote-op index, equals Spec.CrashAtOp
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("fault: rank %d crash-stop at remote op %d", e.Rank, e.Op)
}

// ChaosSpec returns the moderate everything-on schedule the chaos tests
// and CI run under: a few percent of transient failures, sparse spikes and
// stalls, occasional cache unavailability.
func ChaosSpec(seed uint64) Spec {
	return Spec{
		Seed:           seed,
		GetFailPct:     0.01,
		AccFailPct:     0.01,
		SpikePct:       0.005,
		SpikeNS:        2e4,
		StallPeriodOps: 8192,
		StallNS:        1e5,
		CacheFailPct:   0.001,
	}
}

// Sched is one rank's bound fault schedule: the spec plus the rank's
// decision counters. A Sched is owned by its rank's goroutine and must not
// be shared. New returns nil for nil or disabled specs, so consumers guard
// the whole plane with one nil check.
type Sched struct {
	spec     Spec
	rank     int
	ops      uint64 // remote one-sided op index (all classes)
	cacheOps uint64 // CLaMPI access index
	crashed  bool   // the crash-stop already fired (it fires once)
	wedged   bool   // the wedge already fired (it fires once)
}

// New binds spec to a rank. nil spec, or one that cannot inject anything,
// returns nil.
func New(spec *Spec, rank int) *Sched {
	if spec == nil || !spec.Enabled() {
		return nil
	}
	return &Sched{spec: spec.withDefaults(), rank: rank}
}

// Policy returns the schedule's effective (default-filled) retry policy.
func (s *Sched) Policy() RetryPolicy { return s.spec.Retry }

// splitmix64 is the finalizer of the splitmix64 generator — the same mixer
// the noise plane seeds its per-rank streams with.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// u returns a uniform draw in [0, 1) that is a pure function of
// (seed, rank, channel, idx, sub) — no state beyond the counters that
// produce idx, so decisions replay identically at any worker count and
// under either charge-fold schedule.
func (s *Sched) u(ch uint64, idx, sub uint64) float64 {
	x := s.spec.Seed
	x = splitmix64(x ^ (uint64(s.rank)+1)*0x9E3779B97F4A7C15)
	x = splitmix64(x ^ ch*0xBF58476D1CE4E5B9)
	x = splitmix64(x ^ idx*0x94D049BB133111EB ^ sub*0xD6E8FEB86659FD93)
	return float64(x>>11) / (1 << 53)
}

func (s *Sched) failPct(cl Class) float64 {
	if cl == ClassGet {
		return s.spec.GetFailPct
	}
	return s.spec.AccFailPct
}

// Outcome is the fault decision of one remote one-sided operation: how
// many attempts failed before the forced-successful one, the absorbed
// latency spike on the successful attempt, and the stall window opening at
// this op (all zero on the fault-free fast path).
type Outcome struct {
	s       *Sched
	op      uint64
	failed  int
	spikeNS float64
	stallNS float64
	crashed bool
	wedged  bool
}

// Op advances the rank's remote-op counter and decides the op's faults.
// It must be called exactly once per remote one-sided operation, at the
// issue point of the canonical charge order.
func (s *Sched) Op(cl Class) Outcome {
	op := s.ops
	s.ops++
	o := Outcome{s: s, op: op}
	if p := s.failPct(cl); p > 0 {
		for a := 0; a < s.spec.Retry.MaxAttempts; a++ {
			if s.u(uint64(cl), op, uint64(a)) >= p {
				break
			}
			o.failed++
		}
	}
	if s.spec.SpikePct > 0 && s.u(chSpike, op, 0) < s.spec.SpikePct {
		o.spikeNS = s.spec.SpikeNS * (0.5 + s.u(chSpike, op, 1))
	}
	if n := uint64(s.spec.StallPeriodOps); n > 0 && op > 0 && op%n == 0 {
		o.stallNS = s.spec.StallNS * (0.5 + s.u(chStall, op/n, 0))
	}
	if s.spec.CrashAtOp > 0 && !s.crashed && s.rank == s.spec.CrashRank &&
		op+1 == uint64(s.spec.CrashAtOp) {
		s.crashed = true
		o.crashed = true
	}
	if s.spec.WedgeAtOp > 0 && !s.wedged && s.rank == s.spec.WedgeRank &&
		op+1 == uint64(s.spec.WedgeAtOp) {
		s.wedged = true
		o.wedged = true
	}
	return o
}

// Failed returns the number of failed attempts before the successful one
// (0 on the fault-free path, ≤ the policy's MaxAttempts always).
func (o Outcome) Failed() int { return o.failed }

// SpikeNS returns the absorbed latency-spike delay of the successful
// attempt, 0 if none fired.
func (o Outcome) SpikeNS() float64 { return o.spikeNS }

// StallNS returns the stall-window duration opening at this op, 0 if none.
func (o Outcome) StallNS() float64 { return o.stallNS }

// Crashed reports whether the crash-stop fires at this op.
func (o Outcome) Crashed() bool { return o.crashed }

// Wedged reports whether the wedge class fires at this op: the rank
// parks forever and only an external cancel releases it.
func (o Outcome) Wedged() bool { return o.wedged }

// CrashRecovers reports the armed recovery mode: true re-executes from
// the last barrier, false fails the run fast.
func (o Outcome) CrashRecovers() bool { return o.s.spec.CrashRecover }

// CrashRestartNS returns the modeled restart delay of a recovered crash.
func (o Outcome) CrashRestartNS() float64 { return o.s.spec.CrashRestartNS }

// CrashError builds the deterministic error of an unrecovered crash at
// this op on the given rank.
func (o Outcome) CrashError(rank int) *CrashError {
	return &CrashError{Rank: rank, Op: int(o.op) + 1}
}

// BackoffNS returns the deterministic jittered backoff before retrying
// after failed attempt a: min(Base·2^a, Max) × (0.5 + u).
func (o Outcome) BackoffNS(attempt int) float64 {
	p := o.s.spec.Retry
	sh := uint(attempt)
	if sh > 30 {
		sh = 30
	}
	b := p.BackoffBaseNS * float64(uint64(1)<<sh)
	if b > p.BackoffMaxNS {
		b = p.BackoffMaxNS
	}
	return b * (0.5 + o.s.u(chBackoff, o.op, uint64(attempt)))
}

// CacheOp advances the rank's cache-access counter and reports whether a
// CLaMPI-unavailability fault fires on this access.
func (s *Sched) CacheOp() bool {
	if s.spec.CacheFailPct <= 0 {
		return false
	}
	idx := s.cacheOps
	s.cacheOps++
	return s.u(chCache, idx, 0) < s.spec.CacheFailPct
}

// ParseSpec parses the -faults flag grammar: a comma-separated list of
// key=value settings.
//
//	seed=N            schedule seed (default 1)
//	get=P acc=P       per-attempt transient failure probability by class
//	p=P               shorthand: get and acc at once
//	spike=P:NS        latency spikes: probability and magnitude
//	stall=N:NS        a stall window every N remote ops, ~NS ns each
//	cache=P           CLaMPI unavailability probability per access
//	crash=R:OP        crash-stop: rank R dies at its OP-th remote op and
//	                  the run fails fast with a deterministic error
//	crashrecover=R:OP crash-stop with recovery: the rank restarts and
//	                  re-executes from its last barrier (results are
//	                  bit-identical to the fault-free run)
//	restart=NS        modeled restart delay of a recovered crash
//	wedge=R:OP        wedge: rank R parks forever at its OP-th remote op;
//	                  only an external cancel (deadline, serve watchdog)
//	                  ends the run
//	retries=N timeout=NS backoff=BASE:MAX   retry policy
//	chaos             the ChaosSpec preset (other keys still override)
//
// The empty string returns (nil, nil): faults off.
func ParseSpec(s string) (*Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	spec := Spec{Seed: 1}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		if kv == "chaos" {
			spec = ChaosSpec(spec.Seed)
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("fault: %q is not key=value", kv)
		}
		pair := func() (float64, float64, error) {
			a, b, ok := strings.Cut(v, ":")
			if !ok {
				return 0, 0, fmt.Errorf("fault: %s needs a:b, got %q", k, v)
			}
			x, err := strconv.ParseFloat(a, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("fault: %s: %v", k, err)
			}
			y, err := strconv.ParseFloat(b, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("fault: %s: %v", k, err)
			}
			return x, y, nil
		}
		var f float64
		var err error
		switch k {
		case "spike":
			spec.SpikePct, spec.SpikeNS, err = pair()
		case "stall":
			var n float64
			n, spec.StallNS, err = pair()
			spec.StallPeriodOps = int(n)
		case "backoff":
			spec.Retry.BackoffBaseNS, spec.Retry.BackoffMaxNS, err = pair()
		case "crash", "crashrecover":
			var rk, op float64
			rk, op, err = pair()
			spec.CrashRank, spec.CrashAtOp = int(rk), int(op)
			spec.CrashRecover = k == "crashrecover"
			if err == nil && (spec.CrashRank < 0 || spec.CrashAtOp < 1) {
				return nil, fmt.Errorf("fault: %s=%s needs rank>=0 and op>=1", k, v)
			}
		case "wedge":
			var rk, op float64
			rk, op, err = pair()
			spec.WedgeRank, spec.WedgeAtOp = int(rk), int(op)
			if err == nil && (spec.WedgeRank < 0 || spec.WedgeAtOp < 1) {
				return nil, fmt.Errorf("fault: %s=%s needs rank>=0 and op>=1", k, v)
			}
		default:
			f, err = strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: %s: %v", k, err)
			}
			switch k {
			case "seed":
				spec.Seed = uint64(f)
			case "get":
				spec.GetFailPct = f
			case "acc":
				spec.AccFailPct = f
			case "p":
				spec.GetFailPct, spec.AccFailPct = f, f
			case "cache":
				spec.CacheFailPct = f
			case "retries":
				spec.Retry.MaxAttempts = int(f)
			case "timeout":
				spec.Retry.TimeoutNS = f
			case "restart":
				spec.CrashRestartNS = f
			default:
				return nil, fmt.Errorf("fault: unknown key %q", k)
			}
		}
		if err != nil {
			return nil, err
		}
		if prob(k) && (f < 0 || f >= 1) {
			return nil, fmt.Errorf("fault: %s=%v outside [0,1)", k, f)
		}
	}
	if !spec.Enabled() {
		return nil, fmt.Errorf("fault: %q enables no fault class", s)
	}
	return &spec, nil
}

func prob(k string) bool {
	switch k {
	case "get", "acc", "p", "cache":
		return true
	}
	return false
}

// String renders the spec in ParseSpec grammar (diagnostics, run logs).
func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", s.Seed)
	add := func(k string, v float64) {
		if v > 0 {
			fmt.Fprintf(&b, ",%s=%g", k, v)
		}
	}
	add("get", s.GetFailPct)
	add("acc", s.AccFailPct)
	if s.SpikePct > 0 && s.SpikeNS > 0 {
		fmt.Fprintf(&b, ",spike=%g:%g", s.SpikePct, s.SpikeNS)
	}
	if s.StallPeriodOps > 0 && s.StallNS > 0 {
		fmt.Fprintf(&b, ",stall=%d:%g", s.StallPeriodOps, s.StallNS)
	}
	add("cache", s.CacheFailPct)
	if s.CrashAtOp > 0 {
		k := "crash"
		if s.CrashRecover {
			k = "crashrecover"
		}
		fmt.Fprintf(&b, ",%s=%d:%d", k, s.CrashRank, s.CrashAtOp)
		if s.CrashRestartNS > 0 {
			fmt.Fprintf(&b, ",restart=%g", s.CrashRestartNS)
		}
	}
	if s.WedgeAtOp > 0 {
		fmt.Fprintf(&b, ",wedge=%d:%d", s.WedgeRank, s.WedgeAtOp)
	}
	return b.String()
}
