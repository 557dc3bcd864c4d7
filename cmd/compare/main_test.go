package main

import (
	"maps"
	"strings"
	"testing"
)

// TestParseSkip holds -skip to the engines compare runs: blanks are ignored,
// every skippable name is accepted, and anything else — including the
// retired algebraic and replicated rows and a typo — is an error that lists
// the valid names.
func TestParseSkip(t *testing.T) {
	all := map[string]bool{}
	for _, s := range skippable {
		all[s] = true
	}
	for _, tc := range []struct {
		list    string
		want    map[string]bool // nil: parseSkip must fail
		wantErr string
	}{
		{list: "", want: map[string]bool{}},
		{list: strings.Join(skippable, ","), want: all},
		{list: " tric , ,2d ", want: map[string]bool{"tric": true, "2d": true}},
		{list: "algebraic", wantErr: `"algebraic"`},
		{list: "replicated", wantErr: `"replicated"`},
		{list: "tric,distc", wantErr: `"distc"`},
	} {
		got, err := parseSkip(tc.list)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "tricbuf") {
				t.Errorf("parseSkip(%q) = %v, %v; want an error naming %s and the valid engines", tc.list, got, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !maps.Equal(got, tc.want) {
			t.Errorf("parseSkip(%q) = %v, %v; want %v", tc.list, got, err, tc.want)
		}
	}
}

// TestParseArgs holds compare's command line to what the engines can run:
// a rank count below 1 is an error naming -ranks before any dataset loads,
// as a bad -skip list is.
func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		args    string
		wantErr string // substring of the error; "" = parsing succeeds
	}{
		{args: "-ranks 0", wantErr: "-ranks 0: must be at least 1"},
		{args: "-ranks -2", wantErr: "-ranks -2: must be at least 1"},
		{args: "-ranks 4 -skip replicated", wantErr: `-skip: unknown engine "replicated"`},
		{args: "-dataset fb-sim -ranks 1 -skip tric"},
	} {
		dataset, ranks, skipped, err := parseArgs(strings.Fields(tc.args))
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("compare %s: error %v, want one naming %q", tc.args, err, tc.wantErr)
			}
		case err != nil || dataset != "fb-sim" || ranks != 1 || !maps.Equal(skipped, map[string]bool{"tric": true}):
			t.Errorf("compare %s = %q, %d, %v, %v", tc.args, dataset, ranks, skipped, err)
		}
	}
}
