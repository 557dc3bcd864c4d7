// Package fault is the deterministic fault plane of the simulated machine:
// two scheduled events the RMA substrate fires at a rank's remote one-sided
// operations, which the serving layer's supervisor and watchdog exist to
// handle.
//
// A crash-stop kills a rank at its n-th remote operation: the run either
// fails fast with a typed *CrashError or recovers, charging the restart and
// the re-execution from the rank's last barrier as simulated time (results
// stay bit-identical to the fault-free run). A wedge parks a rank forever at
// its n-th remote operation, so only an external cancel ends the run. Both
// are a per-rank remote-op counter compared against a target; nothing is
// drawn, so a faulted run replays to the bit at any worker count.
//
// A nil *Spec, or one that arms neither event, disables the plane: New
// returns nil and every consumer's per-op check is a single nil comparison.
package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec describes a fault schedule. The zero value arms nothing.
type Spec struct {
	// CrashAtOp arms the crash-stop: rank CrashRank dies at its
	// CrashAtOp-th remote one-sided operation (1-based; 0 disables it).
	// With CrashRecover false the run fails fast with a deterministic
	// *CrashError; with it true the rank restarts and re-executes from its
	// last barrier — charged as blocked simulated time, never actually
	// re-run, so the fault-free charge sequence embeds verbatim in the
	// recovered run and results stay bit-identical (DESIGN.md §7).
	CrashAtOp    int
	CrashRank    int
	CrashRecover bool

	// WedgeAtOp arms the wedge: rank WedgeRank parks forever at its
	// WedgeAtOp-th remote one-sided operation (1-based; 0 disables it).
	// There is no in-run recovery — the rank stops issuing operations and
	// stops reaching checkpoints, so the run can only end through an
	// external cancel (a caller deadline or the serve watchdog). This is
	// the schedule for a host-side hang: a deadlocked lock, a stuck
	// syscall, a livelocked progress engine.
	WedgeAtOp int
	WedgeRank int
}

// Check reports an armed event aimed at a rank a world of the given size
// does not have: it would never fire, and the run would pass for a faulted
// one. Engines call it before anything runs. A nil spec passes.
func (s *Spec) Check(ranks int) error {
	if s == nil {
		return nil
	}
	if s.CrashAtOp > 0 && (s.CrashRank < 0 || s.CrashRank >= ranks) {
		return fmt.Errorf("fault: crash aimed at rank %d of a %d-rank run", s.CrashRank, ranks)
	}
	if s.WedgeAtOp > 0 && (s.WedgeRank < 0 || s.WedgeRank >= ranks) {
		return fmt.Errorf("fault: wedge aimed at rank %d of a %d-rank run", s.WedgeRank, ranks)
	}
	return nil
}

// CrashError is the deterministic failure of a crash-stop without
// recovery: rank Rank died at its Op-th remote one-sided operation. The
// same spec produces the same error at any worker count.
type CrashError struct {
	Rank int
	Op   int // 1-based remote-op index, equals Spec.CrashAtOp
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("fault: rank %d crash-stop at remote op %d", e.Rank, e.Op)
}

// Sched is one rank's bound schedule: its remote-op counter and the op
// indexes at which its crash and its wedge fire (0: never). A Sched is
// owned by its rank's goroutine and must not be shared.
type Sched struct {
	ops              int
	crashAt, wedgeAt int
	recover          bool
}

// New binds spec to a rank. It returns nil when the spec arms nothing for
// that rank, so the ranks no event names pay one nil check per op.
func New(spec *Spec, rank int) *Sched {
	if spec == nil {
		return nil
	}
	s := &Sched{recover: spec.CrashRecover}
	if spec.CrashRank == rank && spec.CrashAtOp > 0 {
		s.crashAt = spec.CrashAtOp
	}
	if spec.WedgeRank == rank && spec.WedgeAtOp > 0 {
		s.wedgeAt = spec.WedgeAtOp
	}
	if s.crashAt == 0 && s.wedgeAt == 0 {
		return nil
	}
	return s
}

// Op counts one remote one-sided operation and reports whether the crash
// and the wedge fire at it; each fires once, at its target. It must be
// called exactly once per remote operation, at its issue point.
func (s *Sched) Op() (crash, wedge bool) {
	s.ops++
	return s.ops == s.crashAt, s.ops == s.wedgeAt
}

// Recovers reports the armed crash's mode: true re-executes from the last
// barrier, false fails the run fast.
func (s *Sched) Recovers() bool { return s.recover }

// CrashError builds the error of an unrecovered crash of the given rank.
func (s *Sched) CrashError(rank int) *CrashError {
	return &CrashError{Rank: rank, Op: s.crashAt}
}

// ParseSpec parses the -faults flag grammar: a comma-separated list of
// key=R:OP settings, R a rank and OP a 1-based remote-op index.
//
//	crash=R:OP        crash-stop: rank R dies at its OP-th remote op and
//	                  the run fails fast with a deterministic error
//	crashrecover=R:OP crash-stop with recovery: the rank restarts and
//	                  re-executes from its last barrier (results are
//	                  bit-identical to the fault-free run)
//	wedge=R:OP        wedge: rank R parks forever at its OP-th remote op;
//	                  only an external cancel (deadline, serve watchdog)
//	                  ends the run
//
// The empty string returns (nil, nil): faults off.
func ParseSpec(s string) (*Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var spec Spec
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("fault: %q is not key=value", kv)
		}
		if k != "crash" && k != "crashrecover" && k != "wedge" {
			return nil, fmt.Errorf("fault: unknown key %q", k)
		}
		a, b, ok := strings.Cut(v, ":")
		if !ok {
			return nil, fmt.Errorf("fault: %s needs R:OP, got %q", k, v)
		}
		rk, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("fault: %s: %v", k, err)
		}
		op, err := strconv.Atoi(b)
		if err != nil {
			return nil, fmt.Errorf("fault: %s: %v", k, err)
		}
		if rk < 0 || op < 1 {
			return nil, fmt.Errorf("fault: %s=%s needs rank>=0 and op>=1", k, v)
		}
		if k == "wedge" {
			spec.WedgeRank, spec.WedgeAtOp = rk, op
		} else {
			spec.CrashRank, spec.CrashAtOp, spec.CrashRecover = rk, op, k == "crashrecover"
		}
	}
	if spec.CrashAtOp == 0 && spec.WedgeAtOp == 0 {
		return nil, fmt.Errorf("fault: %q arms no fault", s)
	}
	return &spec, nil
}

// String renders the spec in ParseSpec grammar (diagnostics, run logs).
func (s Spec) String() string {
	var parts []string
	if s.CrashAtOp > 0 {
		k := "crash"
		if s.CrashRecover {
			k = "crashrecover"
		}
		parts = append(parts, fmt.Sprintf("%s=%d:%d", k, s.CrashRank, s.CrashAtOp))
	}
	if s.WedgeAtOp > 0 {
		parts = append(parts, fmt.Sprintf("wedge=%d:%d", s.WedgeRank, s.WedgeAtOp))
	}
	return strings.Join(parts, ",")
}
