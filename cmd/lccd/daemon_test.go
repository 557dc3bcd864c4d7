package main

// The one driver for every test that needs a live daemon. TestMain
// re-execs this test binary as lccd itself (LCCD_TEST_DAEMON=1 → main()),
// so flag parsing, the listener, the address file, the SIGTERM drain and
// what a SIGKILL leaves behind are all the production code — and under
// -race the child is race-instrumented too.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/lcc"
	"repro/internal/sched"
	"repro/internal/serve"
)

func TestMain(m *testing.M) {
	if os.Getenv("LCCD_TEST_DAEMON") == "1" {
		main() // exits 1 itself on error
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one lccd child process with its state directory and graph disk
// cache; both outlive a kill, so boot after kill is a crash recovery.
type daemon struct {
	t        *testing.T
	stateDir string // manifests and lccd.addr
	cacheDir string // LCC_GRAPH_CACHE: the .lcg files the chaos campaign damages
	client   *http.Client

	cmd    *exec.Cmd     // nil while no child runs
	exited chan error    // the child's cmd.Wait result
	out    *bytes.Buffer // the child's stdout and stderr; read only after exited fired
	base   string

	// golden is the first successful run() reading; every later one must
	// match it bit for bit.
	golden *runResult
}

// runResult is the typed decode of a /v1/run reply: score_bits must
// round-trip as a uint64 (a float64 decode would lose the low bits of the
// checksum and defeat the bit-identity assertion).
type runResult struct {
	SimTime   float64 `json:"sim_time_ns"`
	Triangles int64   `json:"triangles"`
	SumT      int64   `json:"sum_t"`
	ScoreBits uint64  `json:"score_bits"`
}

// psView is the typed client-side decode of GET /v1/ps.
type psView struct {
	Server struct {
		States map[string]int `json:"states"`
	} `json:"server"`
	Instances []struct {
		Name     string         `json:"name"`
		State    string         `json:"state"`
		Counters serve.Counters `json:"counters"`
	} `json:"instances"`
}

// instance returns the named instance's state and Served counter, or ok =
// false when ps does not list it.
func (ps *psView) instance(name string) (state string, served int64, ok bool) {
	for _, inst := range ps.Instances {
		if inst.Name == name {
			return inst.State, inst.Counters.Served, true
		}
	}
	return "", 0, false
}

// startDaemon boots a daemon on fresh directories and kills it when the
// test ends.
func startDaemon(t *testing.T) *daemon {
	t.Helper()
	d := &daemon{
		t: t, stateDir: t.TempDir(), cacheDir: t.TempDir(),
		client: &http.Client{Timeout: 3 * time.Minute},
	}
	t.Cleanup(d.kill)
	if err := d.boot(); err != nil {
		t.Fatal(err)
	}
	return d
}

// boot starts (or restarts) the daemon on an ephemeral port with a run cap
// and a fast background scrubber, and waits for its address file.
func (d *daemon) boot() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	addrFile := filepath.Join(d.stateDir, "lccd.addr")
	_ = os.Remove(addrFile) // absent on the first boot
	cmd := exec.Command(exe,
		"-addr", "127.0.0.1:0",
		"-state-dir", d.stateDir,
		"-run-cap", "8",
		"-scrub-period", "100ms",
	)
	cmd.Env = append(os.Environ(), "LCCD_TEST_DAEMON=1", "LCC_GRAPH_CACHE="+d.cacheDir)
	out := new(bytes.Buffer)
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	d.cmd, d.exited, d.out = cmd, exited, out

	deadline := time.After(20 * time.Second)
	poll := time.NewTicker(10 * time.Millisecond)
	defer poll.Stop()
	for {
		select {
		case err := <-exited:
			d.cmd = nil
			return fmt.Errorf("daemon exited before serving: %v\n%s", err, out)
		case <-deadline:
			d.kill()
			return fmt.Errorf("daemon did not write %s within 20 s\n%s", addrFile, out)
		case <-poll.C:
			if raw, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(raw, []byte("\n")) {
				d.base = "http://" + strings.TrimSpace(string(raw))
				return nil
			}
		}
	}
}

// kill SIGKILLs the daemon — the crash-stop case, no drain.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Kill() // a child that already exited still delivers on exited
	<-d.exited
	d.cmd = nil
}

// term is the graceful path: SIGTERM, then the drain's exit status (nil is
// status 0).
func (d *daemon) term() error {
	if d.cmd == nil {
		return errors.New("no daemon running")
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	err := <-d.exited
	d.cmd = nil
	return err
}

// do sends one request (header as key, value pairs) and returns the status
// and the raw body. It never fails the test itself: the chaos storm calls
// it from its own goroutines.
func (d *daemon) do(method, path, body string, header ...string) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// call is do with the reply decoded as a JSON object, whatever its status;
// the caller asserts on status and body.
func (d *daemon) call(method, path, body string, header ...string) (int, map[string]any, error) {
	status, raw, err := d.do(method, path, body, header...)
	if err != nil {
		return 0, nil, err
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return status, nil, fmt.Errorf("%s: status %d: undecodable body %q: %w", path, status, raw, err)
	}
	return status, m, nil
}

func (d *daemon) post(path, body string) (int, map[string]any, error) {
	return d.call(http.MethodPost, path, body)
}

const (
	loadFB = `{"name":"fb","dataset":"fb-sim","ranks":4,"max_concurrent":2,"queue_depth":4,"stall_timeout_ms":2000}`
	runFB  = `{"instance":"fb","method":"hybrid","timeout_ms":120000}`
)

// run sends the pinned query, requires a 200 and holds the reply to the
// golden reading.
func (d *daemon) run() (*runResult, error) {
	status, raw, err := d.do(http.MethodPost, "/v1/run", runFB)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("golden run: status %d: %s", status, raw)
	}
	var res runResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	if d.golden == nil {
		d.golden = &res
	} else if res != *d.golden {
		return nil, fmt.Errorf("bits drifted from golden:\n  golden %+v\n  got    %+v", *d.golden, res)
	}
	return &res, nil
}

// ps fetches and decodes /v1/ps.
func (d *daemon) ps() (*psView, error) {
	status, raw, err := d.do(http.MethodGet, "/v1/ps", "")
	if err != nil {
		return nil, err
	}
	var ps psView
	if err := json.Unmarshal(raw, &ps); err != nil {
		return nil, fmt.Errorf("/v1/ps: status %d: %w", status, err)
	}
	return &ps, nil
}

// row is one line of a handler table: a request, and the status and
// machine-readable reason it must draw.
type row struct {
	name   string
	method string // "" is POST
	path   string
	body   string
	header []string
	status int
	reason string // on every non-2xx row
}

// expect runs the rows in order against the daemon and returns the last
// reply's body.
func (d *daemon) expect(rows []row) map[string]any {
	d.t.Helper()
	var m map[string]any
	for _, c := range rows {
		if c.method == "" {
			c.method = http.MethodPost
		}
		var status int
		var err error
		if status, m, err = d.call(c.method, c.path, c.body, c.header...); err != nil {
			d.t.Fatalf("%s: %v", c.name, err)
		}
		if status != c.status {
			d.t.Fatalf("%s: status %d, want %d: %v", c.name, status, c.status, m)
		}
		if msg, _ := m["error"].(string); status >= 300 && (c.reason == "" || m["reason"] != c.reason || msg == "") {
			d.t.Fatalf("%s: reason %q, want %q, with a message: %v", c.name, m["reason"], c.reason, m)
		}
	}
	return m
}

// oversized: a request past the body bound must bounce with a typed 413,
// not be read without limit.
var oversized = row{name: "oversized body", path: "/v1/run", status: 413, reason: "body-too-large",
	body: `{"instance":"fb","method":"` + strings.Repeat("x", maxBodyBytes+1) + `"}`}

// TestDaemonSmoke is the full service loop against a real process: load a
// graph over HTTP, run one query, health, the body bound, stop, then a
// SIGTERM drain that must exit 0.
func TestDaemonSmoke(t *testing.T) {
	d := startDaemon(t)
	res := d.expect([]row{
		{name: "load", path: "/v1/load", body: loadFB, status: 200},
		{name: "run", path: "/v1/run", body: runFB, status: 200},
	})
	if res["triangles"] == nil {
		t.Fatalf("run returned no triangle count: %v", res)
	}
	t.Logf("run ok: triangles=%v sim_time_ns=%v", res["triangles"], res["sim_time_ns"])
	d.expect([]row{
		{name: "health", method: http.MethodGet, path: "/v1/health", status: 200},
		oversized,
		{name: "stop", path: "/v1/stop", body: `{"instance":"fb"}`, status: 200},
	})
	if err := d.term(); err != nil {
		t.Fatalf("SIGTERM drain: %v\n%s", err, d.out)
	}
	if !strings.Contains(d.out.String(), "lccd: drained, bye") {
		t.Fatalf("daemon exited 0 without draining:\n%s", d.out)
	}
}

// loadFBWith is a load of fb-sim as "fb" with extra fields.
func loadFBWith(fields string) string { return `{"name":"fb","dataset":"fb-sim"` + fields + `}` }

// handlerRows walks the handlers' rejection paths in one pass, and the two
// load rules: a failed first load registers nothing, a live name is not
// loaded twice. FuzzLCCDRequest takes its seed corpus from the same rows.
var handlerRows = []row{
	{name: "malformed load", path: "/v1/load", body: `{"name":`, status: 400, reason: "bad-request"},
	{name: "malformed run", path: "/v1/run", body: `not json`, status: 400, reason: "bad-request"},
	{name: "malformed stop", path: "/v1/stop", body: `[`, status: 400, reason: "bad-request"},
	{name: "load without dataset", path: "/v1/load", body: `{"name":"fb"}`, status: 400, reason: "bad-request"},
	{name: "unknown scheme", path: "/v1/load", body: loadFBWith(`,"scheme":"diagonal"`), status: 400, reason: "bad-request"},
	{name: "unknown storage", path: "/v1/load", body: loadFBWith(`,"storage":"tape"`), status: 400, reason: "bad-request"},
	{name: "unknown dataset", path: "/v1/load", body: `{"name":"fb","dataset":"nope"}`, status: 400, reason: "bad-request"},
	{name: "negative ranks", path: "/v1/load", body: loadFBWith(`,"ranks":-3`), status: 400, reason: "bad-request"},
	{name: "ranks past the limit", path: "/v1/load", body: loadFBWith(`,"ranks":1000000000`), status: 400, reason: "bad-request"},
	{name: "health after failed loads", method: http.MethodGet, path: "/v1/health", status: 200},
	{name: "corrected load of the same name", path: "/v1/load", body: loadFBWith(`,"ranks":4`), status: 200},
	{name: "duplicate load", path: "/v1/load", body: loadFBWith(`,"ranks":4`), status: 409, reason: "already-running"},
	{name: "run on unknown instance", path: "/v1/run", body: `{"instance":"ghost"}`, status: 404, reason: "unknown-instance"},
	{name: "stop on unknown instance", path: "/v1/stop", body: `{"instance":"ghost"}`, status: 404, reason: "unknown-instance"},
	{name: "unknown method", path: "/v1/run", body: `{"instance":"fb","method":"hybird"}`, status: 400, reason: "bad-request"},
	{name: "unknown engine", path: "/v1/run", body: `{"instance":"fb","engine":"bogus"}`, status: 400, reason: "bad-request"},
	{name: "unknown fault", path: "/v1/run", body: `{"instance":"fb","faults":"gremlins=1"}`, status: 400, reason: "bad-request"},
	{name: "workers past the limit", path: "/v1/run", body: `{"instance":"fb","workers":1000000000}`, status: 400, reason: "bad-request"},
	{name: "offsets cache past the limit", path: "/v1/run", body: `{"instance":"fb","caching":true,"cache_offsets_bytes":1000000000000}`, status: 400, reason: "bad-request"},
	{name: "negative workers", path: "/v1/run", body: `{"instance":"fb","workers":-1}`, status: 400, reason: "bad-request"},
	{name: "negative offsets cache", path: "/v1/run", body: `{"instance":"fb","caching":true,"cache_offsets_bytes":-16}`, status: 400, reason: "bad-request"},
	{name: "negative adjacency cache", path: "/v1/run", body: `{"instance":"fb","caching":true,"cache_adj_bytes":-1}`, status: 400, reason: "bad-request"},
	oversized,
	{name: "header deadline", path: "/v1/run", body: `{"instance":"fb"}`,
		header: []string{"Request-Timeout", "0.001"}, status: 504, reason: "canceled"},
	{name: "run after the rejections", path: "/v1/run", body: runFB, status: 200},
	{name: "stop", path: "/v1/stop", body: `{"instance":"fb"}`, status: 200},
	{name: "run after stop", path: "/v1/run", body: runFB, status: 410, reason: "instance-exited"},
	// Fault specs parse before the instance lookup, so this row reads 400
	// after the stop; it sits last to keep the earlier fuzz seeds numbered.
	{name: "retired drop fault", path: "/v1/run", body: `{"instance":"fb","faults":"drop=0.1"}`, status: 400, reason: "bad-request"},
}

func TestDaemonHandlers(t *testing.T) { startDaemon(t).expect(handlerRows) }

// TestStatusFor: every error a handler can be handed maps to its
// documented status and reason, and none of them falls to the default arm —
// nor does a typed failure of the scrubber or the manifest store, which no
// handler is handed today: a server-side fault must never read as a 400.
func TestStatusFor(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("instance %q: %w", "fb", err) }
	scrub := &serve.ScrubError{Instance: "fb", Integrity: &lcc.IntegrityError{Rank: 1, Section: lcc.SectionOffsets}}
	for _, tc := range []struct {
		err    error
		status int
		reason string
	}{
		{wrap(serve.ErrStalled), 500, "stalled"},
		// A stall unwinds through the cancellation plane and a fleet-cap
		// shed is also a busy: the more specific arm must win.
		{errors.Join(sched.ErrRunCanceled, &serve.StallError{Instance: "fb"}), 500, "stalled"},
		{errors.Join(serve.ErrBusy, serve.ErrServerBusy), 429, "run-cap"},
		{wrap(serve.ErrServerBusy), 429, "run-cap"},
		{wrap(serve.ErrBrownout), 503, "memory-brownout"},
		{wrap(serve.ErrBusy), 429, "instance-busy"},
		{wrap(serve.ErrUnknownInstance), 404, "unknown-instance"},
		{wrap(serve.ErrInstanceExited), 410, "instance-exited"},
		{wrap(serve.ErrNotReady), 503, "not-ready"},
		{wrap(serve.ErrUnhealthy), 503, "unhealthy"},
		{wrap(serve.ErrAlreadyRunning), 409, "already-running"},
		{wrap(serve.ErrQueueTimeout), 504, "queue-timeout"},
		{&serve.QueueTimeoutError{Wait: time.Second}, 504, "queue-timeout"},
		{wrap(sched.ErrRunCanceled), 504, "canceled"},
		{wrap(context.DeadlineExceeded), 504, "canceled"},
		{wrap(context.Canceled), 504, "canceled"},
		{wrap(&sched.PanicError{Rank: 2, Value: "boom"}), 500, "panic"},
		{wrap(serve.ErrQuarantined), 503, "quarantined"},
		{wrap(scrub), 503, "quarantined"},
		// An unhealthy instance whose recorded failure is a scrub error stays
		// "unhealthy": the state the client can act on wins over its cause.
		{errors.Join(serve.ErrUnhealthy, scrub), 503, "unhealthy"},
		{wrap(&serve.ManifestError{Path: "fb.lcm", Err: serve.ErrManifestCorrupt}), 500, "manifest-corrupt"},
		{wrap(&serve.ManifestError{Path: "fb.lcm", Err: serve.ErrManifestVersion}), 500, "manifest-version"},
		{errors.New("serve: unknown engine"), 400, "bad-request"},
	} {
		status, reason := statusFor(tc.err)
		if status != tc.status || reason != tc.reason {
			t.Errorf("statusFor(%v) = %d %q, want %d %q", tc.err, status, reason, tc.status, tc.reason)
		}
	}
}
