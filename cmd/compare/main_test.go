package main

import (
	"maps"
	"strings"
	"testing"
)

// TestParseSkip holds -skip to the engines compare runs: blanks are ignored,
// every skippable name is accepted, and anything else — including the
// retired algebraic row and a typo — is an error that lists the valid names.
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
