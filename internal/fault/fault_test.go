package fault

import (
	"strings"
	"testing"
)

// TestDisabledSchedIsNil pins the zero-overhead contract: nil specs, specs
// that arm nothing, and ranks no armed event names bind to a nil schedule,
// so consumers pay one nil check per op.
func TestDisabledSchedIsNil(t *testing.T) {
	if s := New(nil, 0); s != nil {
		t.Fatal("New(nil) != nil")
	}
	if s := New(&Spec{CrashRank: 0, WedgeRank: 0}, 0); s != nil {
		t.Fatal("New(spec arming nothing) != nil")
	}
	spec := &Spec{CrashAtOp: 3, CrashRank: 1, WedgeAtOp: 5, WedgeRank: 2}
	if s := New(spec, 0); s != nil {
		t.Fatal("New(spec, rank no event names) != nil")
	}
	if New(spec, 1) == nil || New(spec, 2) == nil {
		t.Fatal("New(spec, an armed rank) == nil")
	}
}

// TestDeterministicReplay: each event fires exactly once, at its target op
// of the rank it names, and two schedules bound from the same spec replay
// the same events.
func TestDeterministicReplay(t *testing.T) {
	spec := &Spec{CrashAtOp: 700, CrashRank: 3, CrashRecover: true, WedgeAtOp: 700, WedgeRank: 3}
	a, b := New(spec, 3), New(spec, 3)
	for op := 1; op <= 20000; op++ {
		ca, wa := a.Op()
		cb, wb := b.Op()
		if ca != cb || wa != wb {
			t.Fatalf("op %d: same (spec, rank) diverged", op)
		}
		if want := op == 700; ca != want || wa != want {
			t.Fatalf("op %d: crash %v wedge %v, want both %v", op, ca, wa, want)
		}
	}
	if !a.Recovers() {
		t.Error("crashrecover spec: Recovers() = false")
	}
	if e := a.CrashError(3); e.Rank != 3 || e.Op != 700 || e.Error() != "fault: rank 3 crash-stop at remote op 700" {
		t.Errorf("CrashError = %+v (%v)", e, e)
	}
}

// TestCheck: an event aimed at a rank the world does not have is an error;
// one inside it, an unarmed one and a nil spec pass.
func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		spec *Spec
		ok   bool
	}{
		{nil, true},
		{&Spec{CrashRank: 9}, true},
		{&Spec{CrashAtOp: 5, CrashRank: 3}, true},
		{&Spec{CrashAtOp: 5, CrashRank: 4}, false},
		{&Spec{CrashAtOp: 5, CrashRank: -1}, false},
		{&Spec{WedgeAtOp: 5, WedgeRank: 9}, false},
		{&Spec{CrashAtOp: 5, CrashRank: 0, WedgeAtOp: 5, WedgeRank: 4}, false},
	} {
		if err := tc.spec.Check(4); (err == nil) != tc.ok {
			t.Errorf("%+v.Check(4) = %v, want ok %v", tc.spec, err, tc.ok)
		}
	}
}

// TestParseSpec exercises the -faults grammar round trip and its errors.
func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("crashrecover=2:1500, wedge=1:40")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{CrashAtOp: 1500, CrashRank: 2, CrashRecover: true, WedgeAtOp: 40, WedgeRank: 1}
	if *spec != want {
		t.Fatalf("ParseSpec = %+v, want %+v", *spec, want)
	}
	if s2, err := ParseSpec(spec.String()); err != nil || *s2 != *spec {
		t.Fatalf("String round trip: %+v, %v", s2, err)
	}
	if s, err := ParseSpec("crash=0:3"); err != nil || *s != (Spec{CrashAtOp: 3}) || s.String() != "crash=0:3" {
		t.Fatalf("fail-fast crash spec: %+v, %v", s, err)
	}
	if s, err := ParseSpec("wedge=2:512"); err != nil || *s != (Spec{WedgeRank: 2, WedgeAtOp: 512}) {
		t.Fatalf("wedge spec: %+v, %v", s, err)
	}
	if s, err := ParseSpec(""); s != nil || err != nil {
		t.Fatalf("empty spec should be (nil, nil), got %v, %v", s, err)
	}
	for _, bad := range []string{
		"bogus=1", "crash", "crash=1", "crash=-1:3", "crash=1:0", "wedge=a:3", "crash=1:3:4", ",",
		// Rank and op are integers, not truncated floats.
		"crash=0.5:3", "wedge=1.9:40.7",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	// Transient failures, spikes, stalls, cache degradation, their seed and
	// retry policy, and the restart delay are not part of the plane; nor are
	// one-sided puts or two-sided drops.
	for _, k := range []string{"get", "acc", "p", "spike", "stall", "cache", "seed", "retries", "timeout", "backoff", "restart", "put", "drop"} {
		if _, err := ParseSpec(k + "=1:2"); err == nil || !strings.Contains(err.Error(), `unknown key "`+k+`"`) {
			t.Errorf("ParseSpec(%s=1:2) = %v, want an unknown-key error", k, err)
		}
	}
	if _, err := ParseSpec("chaos"); err == nil {
		t.Error(`ParseSpec("chaos") accepted`)
	}
}
