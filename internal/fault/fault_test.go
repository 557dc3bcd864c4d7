package fault

import (
	"math"
	"strings"
	"testing"
)

// TestDisabledSchedIsNil pins the zero-overhead contract: nil and disabled
// specs bind to a nil schedule, so consumers pay one nil check per op.
func TestDisabledSchedIsNil(t *testing.T) {
	if s := New(nil, 0); s != nil {
		t.Fatal("New(nil) != nil")
	}
	if s := New(&Spec{Seed: 42}, 0); s != nil {
		t.Fatal("New(zero-probability spec) != nil")
	}
	if s := New(&Spec{GetFailPct: 0.1}, 0); s == nil {
		t.Fatal("New(enabled spec) == nil")
	}
}

// TestDeterministicReplay: two schedules bound from the same spec replay
// identical decision sequences, while a different rank or seed diverges.
func TestDeterministicReplay(t *testing.T) {
	spec := ChaosSpec(7)
	a := New(&spec, 3)
	b := New(&spec, 3)
	other := New(&spec, 4)
	diverged := false
	for i := 0; i < 20000; i++ {
		oa, ob, oo := a.Op(ClassGet), b.Op(ClassGet), other.Op(ClassGet)
		if oa.Failed() != ob.Failed() || oa.SpikeNS() != ob.SpikeNS() || oa.StallNS() != ob.StallNS() {
			t.Fatalf("op %d: same (spec, rank) diverged", i)
		}
		if oa.Failed() > 0 && oa.BackoffNS(0) != ob.BackoffNS(0) {
			t.Fatalf("op %d: backoff diverged", i)
		}
		if a.CacheOp() != b.CacheOp() {
			t.Fatalf("op %d: cache decisions diverged", i)
		}
		if oa.Failed() != oo.Failed() || oa.SpikeNS() != oo.SpikeNS() {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("rank 3 and rank 4 replayed identical schedules — streams are correlated")
	}
}

// TestFailureRate: observed per-op failure frequency tracks the configured
// probability (loose 3σ-ish bounds over 100k draws).
func TestFailureRate(t *testing.T) {
	const p = 0.1
	spec := Spec{Seed: 11, GetFailPct: p}
	s := New(&spec, 0)
	fails := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Op(ClassGet).Failed() > 0 {
			fails++
		}
	}
	got := float64(fails) / n
	if got < 0.09 || got > 0.11 {
		t.Fatalf("failure rate %.4f, want ≈ %.2f", got, p)
	}
}

// TestRetriesBounded: Failed never exceeds the policy cap, and backoff
// stays inside [Base/2, 1.5·Max] with exponential growth up to the cap.
func TestRetriesBounded(t *testing.T) {
	spec := Spec{Seed: 3, GetFailPct: 0.9, Retry: RetryPolicy{MaxAttempts: 5}}
	s := New(&spec, 1)
	pol := s.Policy()
	sawCap := false
	for i := 0; i < 5000; i++ {
		o := s.Op(ClassGet)
		if o.Failed() > pol.MaxAttempts {
			t.Fatalf("op %d: %d failed attempts > cap %d", i, o.Failed(), pol.MaxAttempts)
		}
		if o.Failed() == pol.MaxAttempts {
			sawCap = true
		}
		for a := 0; a < o.Failed(); a++ {
			b := o.BackoffNS(a)
			if b < pol.BackoffBaseNS/2 || b > 1.5*pol.BackoffMaxNS {
				t.Fatalf("backoff %v outside [%v, %v]", b, pol.BackoffBaseNS/2, 1.5*pol.BackoffMaxNS)
			}
		}
	}
	if !sawCap {
		t.Fatal("p=0.9 never hit the attempt cap in 5000 ops")
	}
}

// TestStallWindows: stalls open exactly every StallPeriodOps remote ops.
func TestStallWindows(t *testing.T) {
	spec := Spec{Seed: 9, StallPeriodOps: 100, StallNS: 1000}
	s := New(&spec, 0)
	for i := 0; i < 1000; i++ {
		st := s.Op(ClassGet).StallNS()
		if want := i > 0 && i%100 == 0; (st > 0) != want {
			t.Fatalf("op %d: stall=%v, want stall fired=%v", i, st, want)
		}
		if st > 0 && (st < 500 || st > 1500) {
			t.Fatalf("op %d: stall %v outside [500, 1500]", i, st)
		}
	}
}

// TestParseSpec exercises the -faults grammar round trip and its errors.
func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("seed=42,get=0.01,acc=0.03,spike=0.01:25000,stall=4096:200000,cache=0.001,retries=4,timeout=30000,backoff=1000:8000")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Seed: 42, GetFailPct: 0.01, AccFailPct: 0.03,
		SpikePct: 0.01, SpikeNS: 25000, StallPeriodOps: 4096, StallNS: 200000, CacheFailPct: 0.001,
		Retry: RetryPolicy{MaxAttempts: 4, TimeoutNS: 30000, BackoffBaseNS: 1000, BackoffMaxNS: 8000},
	}
	if *spec != want {
		t.Fatalf("ParseSpec = %+v, want %+v", *spec, want)
	}
	if spec2, err := ParseSpec(spec.String()); err != nil || spec2.Seed != 42 || spec2.GetFailPct != 0.01 {
		t.Fatalf("String round trip failed: %+v, %v", spec2, err)
	}
	if s, err := ParseSpec("seed=7,chaos"); err != nil || s.Seed != 7 || !s.Enabled() {
		t.Fatalf("chaos preset: %+v, %v", s, err)
	}
	if s, err := ParseSpec("p=0.05"); err != nil || s.GetFailPct != 0.05 || s.AccFailPct != 0.05 {
		t.Fatalf("p shorthand: %+v, %v", s, err)
	}
	if s, err := ParseSpec("seed=9,wedge=2:512"); err != nil || s.WedgeRank != 2 || s.WedgeAtOp != 512 {
		t.Fatalf("wedge spec: %+v, %v", s, err)
	}
	if s, _ := ParseSpec("seed=9,wedge=2:512"); s != nil {
		if s2, err := ParseSpec(s.String()); err != nil || *s2 != *s {
			t.Fatalf("wedge String round trip: %+v, %v", s2, err)
		}
	}
	if s, err := ParseSpec(""); s != nil || err != nil {
		t.Fatalf("empty spec should be (nil, nil), got %v, %v", s, err)
	}
	for _, bad := range []string{"bogus=1", "get=2", "get", "seed=1", "spike=0.1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	// No operation issues one-sided puts or p2p messages, so no key
	// schedules their faults.
	for _, k := range []string{"put", "drop"} {
		if _, err := ParseSpec(k + "=0.1"); err == nil || !strings.Contains(err.Error(), `unknown key "`+k+`"`) {
			t.Errorf("ParseSpec(%s=0.1) = %v, want an unknown-key error", k, err)
		}
	}
}

// TestUniformRange: the hash-derived uniforms stay in [0, 1) and are not
// visibly biased in the mean.
func TestUniformRange(t *testing.T) {
	spec := Spec{Seed: 123, GetFailPct: 0.5}
	s := New(&spec, 2)
	sum := 0.0
	const n = 100000
	for i := uint64(0); i < n; i++ {
		u := s.u(chSpike, i, 0)
		if u < 0 || u >= 1 || math.IsNaN(u) {
			t.Fatalf("u = %v out of [0,1)", u)
		}
		sum += u
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean %v, want ≈ 0.5", mean)
	}
}
