package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

// FuzzLCCDRequest holds the wire contract under arbitrary input: whatever
// bytes arrive as a load, run or stop body, with whatever Request-Timeout
// value, no handler panics, every reply is a JSON object, every rejection
// carries a reason and a message, a 500 is only ever an isolated panic or a
// watchdog stall, and /v1/health still answers afterwards. It runs against
// newServer()'s mux in-process — no re-exec per input — with fb loaded once;
// the seed corpus is TestDaemonHandlers' rows.
func FuzzLCCDRequest(f *testing.F) {
	srv := newServer()
	// Instances the fuzzer manages to load are parked LRU past this, so a
	// long campaign holds configurations, not snapshots.
	srv.sup.SetMemBudget(32 << 20)
	call := func(method, path, body, timeout string) (int, map[string]any, string) {
		// A wedge fault the fuzzer spells out would otherwise hold its run
		// for as long as the campaign lasts.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		req := httptest.NewRequest(method, path, strings.NewReader(body)).WithContext(ctx)
		if timeout != "" {
			req.Header.Set("Request-Timeout", timeout)
		}
		rec := httptest.NewRecorder()
		srv.http.Handler.ServeHTTP(rec, req)
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			return rec.Code, nil, rec.Body.String()
		}
		return rec.Code, m, rec.Body.String()
	}
	if status, _, raw := call(http.MethodPost, "/v1/load", loadFB, ""); status != http.StatusOK {
		f.Fatalf("loading fb: status %d: %s", status, raw)
	}

	paths := []string{"/v1/load", "/v1/run", "/v1/stop"}
	for _, c := range handlerRows {
		for i, p := range paths {
			if c.path == p && len(c.body) <= maxBodyBytes {
				timeout := ""
				if len(c.header) == 2 {
					timeout = c.header[1]
				}
				f.Add(uint8(i), []byte(c.body), timeout)
			}
		}
	}
	f.Add(uint8(1), []byte(`{"instance":"fb","engine":"jaccard","caching":true,"degree_scores":true,"priority":3,"queue_timeout_ms":5}`), "1e-3")
	f.Add(uint8(1), []byte(`{"instance":"fb","faults":"wedge=0:40","timeout_ms":50}`), "NaN")
	f.Add(uint8(1), []byte(`{"instance":"fb","workers":-4,"cache_offsets_bytes":-1,"cache_adj_bytes":-2}`), "")

	f.Fuzz(func(t *testing.T, which uint8, body []byte, timeout string) {
		// The handlers bound ranks, workers and the offsets cache (rows of
		// TestDaemonHandlers); inside those bounds a request may still ask
		// for gigabytes or a scale-series graph. Not on a shared CI runner.
		var asks struct {
			Dataset      string  `json:"dataset"`
			Ranks        float64 `json:"ranks"`
			Workers      float64 `json:"workers"`
			CacheOffsets float64 `json:"cache_offsets_bytes"`
		}
		_ = json.Unmarshal(body, &asks) // malformed bodies are the handlers' to reject
		if _, err := gen.Lookup(asks.Dataset); err == nil && asks.Dataset != "fb-sim" {
			t.Skip("a registry graph other than fb-sim")
		}
		if asks.Ranks > 64 || asks.Workers > 8 || asks.CacheOffsets > 1<<20 {
			t.Skip("more memory than a smoke should take")
		}

		status, m, raw := call(http.MethodPost, paths[int(which)%len(paths)], string(body), timeout)
		if m == nil {
			t.Fatalf("status %d with a body that is not a JSON object: %q", status, raw)
		}
		reason, _ := m["reason"].(string)
		if msg, _ := m["error"].(string); status >= 300 && (reason == "" || msg == "") {
			t.Fatalf("status %d without a reason and a message: %s", status, raw)
		}
		if status == http.StatusInternalServerError && reason != "panic" && reason != "stalled" {
			t.Fatalf("500 with reason %q: only an isolated panic or a stall is one: %s", reason, raw)
		}
		if status, m, raw := call(http.MethodGet, "/v1/health", "", ""); m == nil ||
			(status != http.StatusOK && status != http.StatusServiceUnavailable) {
			t.Fatalf("health after the request: status %d: %s", status, raw)
		}
	})
}
