package main

import (
	"path/filepath"
	"strconv"
	"testing"
)

func TestPickPair(t *testing.T) {
	const m, s, c = "micro", "serve", "scale"
	for _, tc := range []struct {
		name     string
		modes    []string
		old, new int
		ok       bool
	}{
		{"one mode", []string{m, m, m}, 1, 2, true},
		{"newest record is the first of its mode", []string{m, m, s}, 0, 1, true},
		{"modes interleave", []string{m, s, m, s}, 1, 3, true},
		// The committed trajectory: BENCH_1..5 micro, 6 serve, 7 scale,
		// 8 serve, 9 micro. The newest record is micro and BENCH_5 precedes
		// it, so the default diff is 5 -> 9, not the serve pair 6 -> 8 that
		// a scan for "the first mode seen twice" stops at.
		{"committed records", []string{m, m, m, m, m, s, c, s, m}, 4, 8, true},
		{"newest two modes are both new", []string{m, m, s, c}, 0, 1, true},
		{"no mode twice", []string{m, s, c}, 0, 0, false},
		{"one record", []string{m}, 0, 0, false},
		{"none", nil, 0, 0, false},
	} {
		old, new, ok := pickPair(tc.modes)
		if old != tc.old || new != tc.new || ok != tc.ok {
			t.Errorf("%s: pickPair(%v) = (%d, %d, %v), want (%d, %d, %v)", tc.name, tc.modes, old, new, ok, tc.old, tc.new, tc.ok)
		}
	}
}

// TestNewestPairCommitted reads the repository's own records: whatever has
// been appended since the table above was written, the default pair must be
// two records of one mode, older first.
func TestNewestPairCommitted(t *testing.T) {
	oldPath, newPath, err := newestPair(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var nums [2]int
	var modes [2]string
	for i, path := range []string{oldPath, newPath} {
		m := benchFile.FindStringSubmatch(filepath.Base(path))
		if m == nil {
			t.Fatalf("%s is not a BENCH record", path)
		}
		nums[i], _ = strconv.Atoi(m[1])
		rec, err := load(path)
		if err != nil {
			t.Fatal(err)
		}
		modes[i] = rec.benchMode()
	}
	if nums[0] >= nums[1] || modes[0] != modes[1] {
		t.Fatalf("newestPair = %s (%s), %s (%s)", oldPath, modes[0], newPath, modes[1])
	}
}
