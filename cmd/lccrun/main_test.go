package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives run end to end on fb-sim: every flag whose value is parsed
// rejects what it does not know instead of falling back to a default, and
// every engine reports the graph's triangle count under the scheme it was
// given.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args    string
		wantErr string // substring of the error; "" = the run succeeds
		wantOut string // substring of a successful run's report
	}{
		{args: "-scheme cylic", wantErr: "-scheme"},
		{args: "-push-agg batch", wantErr: `"batched" or "direct"`},
		{args: "-engine pul", wantErr: "unknown engine"},
		{args: "-method hybird", wantErr: "-method"},
		{args: "-method hash", wantErr: `-method: intersect: unknown method "hash" (want "hybrid", "ssi" or "binary")`},
		{args: "-faults get=2", wantErr: "-faults"},
		{args: "-faults drop=0.1", wantErr: `unknown key "drop"`},
		{args: "-engine replicated -replicas 3 -ranks 4", wantErr: "does not divide"},
		{args: "-cache -cache-offsets -16 -cache-adj -100 -workers -3", wantErr: "none may be negative"},
		{args: "-delegate -1", wantErr: "none may be negative"},
		{args: "-timeout -1s", wantErr: "-timeout -1s: none may be negative"},
		{args: "-top -1", wantErr: "-top -1,"},
		{args: "-ranks 0", wantErr: "at least 1"},
		{args: "-engine replicated -replicas 0", wantErr: "at least 1"},
		{args: "-ranks 2 -degree-scores -cache-adj 4096", wantErr: "-cache-adj needs -cache; -degree-scores needs -cache"},
		{args: "-cache=false -cache-offsets 64", wantErr: "-cache-offsets needs -cache"},
		{args: "-push-agg direct", wantErr: "-push-agg needs -engine push"},
		{args: "-engine replicated -push-agg batched", wantErr: "-push-agg needs -engine push"},
		{args: "-replicas 2", wantErr: "-replicas needs -engine replicated"},
		{args: "-engine push -replicas 1 -push-agg direct", wantErr: "-replicas needs -engine replicated"},
		{args: "-engine pull -scheme block-arcs", wantOut: "scheme=block-arcs"},
		{args: "-engine pull -scheme cyclic -cache -degree-scores", wantOut: "scheme=cyclic"},
		{args: "-cache -cache-offsets 16 -cache-adj 4096", wantOut: "% compulsory), C_adj "},
		{args: "-engine push -push-agg direct", wantOut: "engine=push"},
		{args: "-engine replicated -replicas 2", wantOut: "engine=replicated"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-dataset", "fb-sim"}, strings.Fields(tc.args)...), &out)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("lccrun %s: error %v, want one naming %q", tc.args, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("lccrun %s: %v", tc.args, err)
		case !strings.Contains(out.String(), "triangles: 351349 ") || !strings.Contains(out.String(), tc.wantOut):
			t.Errorf("lccrun %s: report lacks fb-sim's triangle count or %q:\n%s", tc.args, tc.wantOut, out.String())
		}
	}
}
