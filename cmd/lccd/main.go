// Command lccd is the persistent analytics daemon over the simulated
// engines: it keeps named graph instances loaded (internal/serve) and
// serves supervised LCC/Jaccard queries against them over a local
// HTTP+JSON API. Runs carry deadlines, cancellation unwinds the simulated
// ranks cleanly, a worker panic fails the run but never the process, and
// admission control bounds concurrent runs per instance — overflow queues
// (bounded, priority-ordered) when the instance allows it.
//
// With -state-dir the daemon is durable: every loaded instance persists a
// versioned, checksummed manifest, and a restart — graceful or kill -9 —
// recovers the fleet from the manifests (lazily by default: instances
// come back parked and rebuild their snapshot on first query). With
// -mem-budget the supervisor parks idle instances LRU when total resident
// snapshot bytes overshoot the budget.
//
// Usage:
//
//	lccd -addr 127.0.0.1:8090
//	lccd -state-dir /var/lib/lccd            # durable: manifests + crash recovery
//	lccd -state-dir dir -recover eager       # rebuild all snapshots at boot
//	lccd -mem-budget 2147483648              # park idle instances past 2 GiB
//	lccd -run-cap 16                         # shed runs past 16 in flight fleet-wide
//	lccd -scrub-period 1m                    # background snapshot integrity scrubbing
//
// API (JSON bodies, JSON replies):
//
//	POST /v1/load   {"name":"fb","dataset":"fb-sim","ranks":4,"max_concurrent":2,"queue_depth":8,
//	                 "stall_timeout_ms":60000}
//	POST /v1/run    {"instance":"fb","engine":"lcc","method":"hybrid","caching":true,
//	                 "timeout_ms":5000,"priority":1,"queue_timeout_ms":2000}
//	POST /v1/stop   {"instance":"fb"}
//	GET  /v1/ps
//	GET  /v1/health
//
// The /v1/load body is a serve.Manifest, the record the state directory
// keeps. ps and health report an instance as loading, ready, unhealthy,
// parked or exited — or busy: ready with runs in flight (DESIGN.md §8).
//
// Typed serve errors map to statuses, and every error body carries a
// machine-readable "reason" code alongside the message: 429
// busy/queue-overflow or the server-wide run cap (with Retry-After), 404
// unknown instance, 410 exited, 503 loading/unhealthy/memory-brownout,
// 504 deadline, cancellation or queue timeout (the JSON body carries the
// queue wait), 500 isolated panic or a watchdog-detected stall, 413
// oversized request body, 400 anything malformed (a body is one JSON value
// with no unknown field), a negative workers or cache size, or past the
// limits on ranks, workers and the offsets cache.
// A client timeout_ms (or Request-Timeout header, in seconds) becomes the
// run context's deadline, so queue wait and execution share one budget.
// SIGTERM/SIGINT drains in-flight runs before exit; manifests survive the
// drain.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/sched"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lccd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lccd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8090", "listen address for the HTTP API")
		drain       = fs.Duration("drain", 30*time.Second, "how long a shutdown waits for in-flight runs")
		stateDir    = fs.String("state-dir", "", "directory for instance manifests; enables restart recovery")
		recoverMode = fs.String("recover", "lazy", "manifest recovery mode: lazy (parked, rebuild on first query) or eager")
		memBudget   = fs.Int64("mem-budget", 0, "total resident snapshot bytes before idle instances are parked LRU (0 = unbounded)")
		runCap      = fs.Int("run-cap", 0, "server-wide cap on supervised runs in flight; past it runs shed with 429 (0 = unbounded)")
		scrubPeriod = fs.Duration("scrub-period", 0, "background snapshot integrity-scrub period, jittered ±25% (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv := newServer()
	if *memBudget > 0 {
		srv.sup.SetMemBudget(*memBudget)
	}
	if *runCap > 0 {
		srv.sup.SetRunCap(*runCap)
	}
	if *scrubPeriod > 0 {
		srv.scrubber = srv.sup.StartScrubber(*scrubPeriod)
	}
	if *stateDir != "" {
		ms, err := serve.NewManifestStore(*stateDir)
		if err != nil {
			return fmt.Errorf("state dir: %w", err)
		}
		srv.stateDir = *stateDir
		srv.sup.SetManifestStore(ms)
		eager := false
		switch *recoverMode {
		case "lazy":
		case "eager":
			eager = true
		default:
			return fmt.Errorf("unknown -recover mode %q (want lazy or eager)", *recoverMode)
		}
		rep := srv.sup.Recover(eager)
		for _, me := range rep.Skipped {
			fmt.Fprintf(out, "lccd: skipping manifest: %v\n", me)
		}
		for _, name := range rep.Failed {
			fmt.Fprintf(out, "lccd: recovered instance %q failed to rebuild (see /v1/ps)\n", name)
		}
		if len(rep.Restored) > 0 {
			mode := "parked"
			if eager {
				mode = "ready"
			}
			fmt.Fprintf(out, "lccd: recovered %d instance(s) from %s (%s): %s\n",
				len(rep.Restored), *stateDir, mode, strings.Join(rep.Restored, ", "))
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "lccd: serving on http://%s\n", ln.Addr())
	srv.writeAddrFile(ln.Addr().String())
	return srv.serve(ln, out, *drain)
}

// maxBodyBytes bounds request bodies: every API body is a small JSON
// object, so anything past 1 MiB is a client bug or abuse and gets 413
// instead of an unbounded read.
const maxBodyBytes = 1 << 20

// The numbers of a request that size allocations whatever the graph —
// per-rank state, scheduler slots, the offsets cache's hash table (a bucket,
// ~140 host bytes, per 16 bytes asked for; C_adj's is bounded by the vertex
// count) — are bounded the same way: past these it gets 400, not the memory.
const (
	maxRanks             = 1 << 10
	maxWorkers           = 1 << 8
	maxOffsetsCacheBytes = 1 << 24
)

// server binds the supervisor to the HTTP surface.
type server struct {
	sup      *serve.Supervisor
	http     *http.Server
	stateDir string
	scrubber *serve.Scrubber
}

func newServer() *server {
	s := &server{sup: serve.NewSupervisor()}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/load", s.handleLoad)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/stop", s.handleStop)
	mux.HandleFunc("GET /v1/ps", s.handlePS)
	mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.http = &http.Server{
		Handler: mux,
		// Slow-client hardening: a peer that trickles headers or a body
		// can no longer pin a connection goroutine forever. Handler
		// execution (long runs) is NOT bounded here — run deadlines belong
		// to the run context, not the socket.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return s
}

// writeAddrFile records the bound address in the state dir so ops tooling
// (and the package's tests) can find a daemon that bound an ephemeral port.
// Best-effort: no state dir, no file.
func (s *server) writeAddrFile(addr string) {
	if s.stateDir == "" {
		return
	}
	_ = os.WriteFile(filepath.Join(s.stateDir, "lccd.addr"), []byte(addr+"\n"), 0o644)
}

// serve runs the HTTP server until SIGTERM/SIGINT, then drains: the
// supervisor stops admitting runs, fences the admission queues and waits
// for in-flight ones, then the HTTP server shuts down. Manifests survive
// the drain — a restarted daemon recovers the same fleet.
func (s *server) serve(ln net.Listener, out io.Writer, drain time.Duration) error {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(stop)

	errCh := make(chan error, 1)
	go func() { errCh <- s.http.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case sig := <-stop:
		fmt.Fprintf(out, "lccd: %v, draining (up to %v)\n", sig, drain)
	}
	if s.scrubber != nil {
		s.scrubber.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := s.sup.Shutdown(ctx); err != nil {
		fmt.Fprintf(out, "lccd: drain incomplete: %v\n", err)
	}
	if err := s.http.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Fprintln(out, "lccd: drained, bye")
	return nil
}

// handleLoad's body is a serve.Manifest: what is asked for is what is kept.
func (s *server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req serve.Manifest
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	cfg, err := req.Config()
	if err == nil && cfg.Ranks > maxRanks {
		err = fmt.Errorf("ranks %d past the limit of %d", cfg.Ranks, maxRanks)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", err)
		return
	}
	inst, err := s.sup.Load(req.Name, cfg)
	if err != nil {
		writeServeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, inst.Info())
}

// runRequest is the POST /v1/run body. Distribution comes from the
// instance's snapshot; the query owns method, caching, workers, faults,
// priority and queue deadline.
type runRequest struct {
	Instance       string `json:"instance"`
	Engine         string `json:"engine"`
	Method         string `json:"method"`
	Workers        int    `json:"workers"`
	Caching        bool   `json:"caching"`
	CacheOffsets   int    `json:"cache_offsets_bytes"`
	CacheAdj       int    `json:"cache_adj_bytes"`
	DegreeScores   bool   `json:"degree_scores"`
	NoOverlap      bool   `json:"no_overlap"`
	Faults         string `json:"faults"`
	TimeoutMS      int64  `json:"timeout_ms"`
	Priority       int    `json:"priority"`
	QueueTimeoutMS int64  `json:"queue_timeout_ms"`
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	spec, err := fault.ParseSpec(req.Faults)
	method, merr := intersect.ParseMethod(req.Method)
	var lerr error
	if min(req.Workers, req.CacheOffsets, req.CacheAdj) < 0 {
		lerr = fmt.Errorf("workers %d, cache_offsets_bytes %d, cache_adj_bytes %d: none may be negative",
			req.Workers, req.CacheOffsets, req.CacheAdj)
	} else if req.Workers > maxWorkers || req.CacheOffsets > maxOffsetsCacheBytes {
		lerr = fmt.Errorf("workers %d, cache_offsets_bytes %d: the limits are %d and %d",
			req.Workers, req.CacheOffsets, maxWorkers, maxOffsetsCacheBytes)
	}
	if err = errors.Join(err, merr, lerr); err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", err)
		return
	}
	opt := lcc.Options{
		Workers:      req.Workers,
		Method:       method,
		DoubleBuffer: !req.NoOverlap,
		Caching:      req.Caching,
		Faults:       spec,
	}
	if req.DegreeScores {
		opt.AdjScorePolicy = lcc.ScoreDegree
	}
	if req.Caching {
		opt.OffsetsCacheBytes = req.CacheOffsets
		opt.AdjCacheBytes = req.CacheAdj
		if opt.OffsetsCacheBytes == 0 {
			opt.OffsetsCacheBytes = 1 << 20
		}
		if opt.AdjCacheBytes == 0 {
			opt.AdjCacheBytes = 64 << 20
		}
	}
	q := serve.Query{
		Engine:       req.Engine,
		Options:      opt,
		Priority:     req.Priority,
		QueueTimeout: time.Duration(req.QueueTimeoutMS) * time.Millisecond,
	}
	// Deadline propagation: the client's budget (timeout_ms, or a
	// Request-Timeout header in seconds) becomes the run context's
	// deadline, so time spent waiting in the admission queue and time
	// executing draw from the same budget — a run that queued for most of
	// its deadline doesn't then run for a full deadline more. Query.Timeout
	// is disabled (-1) because the context now carries it; with no client
	// budget the instance default applies as before.
	ctx := r.Context()
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if timeout == 0 {
		timeout = headerTimeout(r)
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
		q.Timeout = -1
	}
	res, err := s.sup.Run(ctx, req.Instance, q)
	if err != nil {
		writeServeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// headerTimeout parses the Request-Timeout header (seconds, fractions
// allowed) — the header form of the body's timeout_ms.
func headerTimeout(r *http.Request) time.Duration {
	h := r.Header.Get("Request-Timeout")
	if h == "" {
		return 0
	}
	secs, err := strconv.ParseFloat(h, 64)
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs * float64(time.Second))
}

func (s *server) handleStop(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Instance string `json:"instance"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	if err := s.sup.Stop(req.Instance); err != nil {
		writeServeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"instance": req.Instance, "state": "exited"})
}

// psReply is the GET /v1/ps shape: the fleet-level server view (state
// counts, global admission, scrub stats) plus the per-instance list.
type psReply struct {
	Server    serve.ServerInfo     `json:"server"`
	Instances []serve.InstanceInfo `json:"instances"`
}

func (s *server) handlePS(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, psReply{Server: s.sup.ServerInfo(), Instances: s.sup.List()})
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := http.StatusOK
	if !s.sup.Healthy() {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"healthy":   status == http.StatusOK,
		"server":    s.sup.ServerInfo(),
		"instances": s.sup.List(),
	})
}

// decodeBody reads one bounded JSON body, strictly (serve.DecodeStrict: one
// value, no unknown field); on failure it writes the error reply (413 when
// the MaxBytesReader bound tripped, 400 otherwise) and returns non-nil so
// the handler just returns.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := serve.DecodeStrict(r.Body, v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "body-too-large", err)
			return err
		}
		writeError(w, http.StatusBadRequest, "bad-request", err)
		return err
	}
	return nil
}

// statusFor maps typed serve/sched errors to an HTTP status and a
// machine-readable reason code. Ordering is contractual where errors
// wrap each other: a *StallError unwinds through the cancellation plane,
// so it matches ErrRunCanceled too and must be classified first; the
// server-wide ErrServerBusy is checked before the per-instance ErrBusy
// so a fleet-cap shed is distinguishable from one full queue. The last
// three arms before the default are the store's and the scrubber's typed
// failures: no handler is handed one today (a scrub failure reaches a client
// as the cause text of ErrUnhealthy or as not-ready while the instance
// reloads, a manifest error as a line of the recovery report), and one that
// is must not read as the client's bad request.
func statusFor(err error) (int, string) {
	var pe *sched.PanicError
	switch {
	case errors.Is(err, serve.ErrStalled):
		return http.StatusInternalServerError, "stalled"
	case errors.Is(err, serve.ErrServerBusy):
		return http.StatusTooManyRequests, "run-cap"
	case errors.Is(err, serve.ErrBrownout):
		return http.StatusServiceUnavailable, "memory-brownout"
	case errors.Is(err, serve.ErrBusy):
		return http.StatusTooManyRequests, "instance-busy"
	case errors.Is(err, serve.ErrUnknownInstance):
		return http.StatusNotFound, "unknown-instance"
	case errors.Is(err, serve.ErrInstanceExited):
		return http.StatusGone, "instance-exited"
	case errors.Is(err, serve.ErrNotReady):
		return http.StatusServiceUnavailable, "not-ready"
	case errors.Is(err, serve.ErrUnhealthy):
		return http.StatusServiceUnavailable, "unhealthy"
	case errors.Is(err, serve.ErrAlreadyRunning):
		return http.StatusConflict, "already-running"
	case errors.Is(err, serve.ErrQueueTimeout):
		return http.StatusGatewayTimeout, "queue-timeout"
	case errors.Is(err, sched.ErrRunCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "canceled"
	case errors.As(err, &pe):
		return http.StatusInternalServerError, "panic"
	case errors.Is(err, serve.ErrQuarantined):
		return http.StatusServiceUnavailable, "quarantined"
	case errors.Is(err, serve.ErrManifestCorrupt):
		return http.StatusInternalServerError, "manifest-corrupt"
	case errors.Is(err, serve.ErrManifestVersion):
		return http.StatusInternalServerError, "manifest-version"
	default:
		return http.StatusBadRequest, "bad-request"
	}
}

// errorBody is the JSON error reply. Reason is always set — every
// rejection is machine-classifiable without parsing the message.
// QueueWaitMS reports how long a queue-timed-out run waited before the
// 504; the shed fields carry the numbers behind a 429/503 shed decision.
type errorBody struct {
	Error       string `json:"error"`
	Reason      string `json:"reason"`
	QueueWaitMS int64  `json:"queue_wait_ms,omitempty"`

	ActiveRuns    int   `json:"active_runs,omitempty"`
	RunCap        int   `json:"run_cap,omitempty"`
	ResidentBytes int64 `json:"resident_bytes,omitempty"`
	BudgetBytes   int64 `json:"budget_bytes,omitempty"`
}

// writeServeError maps a typed serve error onto its status and protocol
// extras: 429 responses carry Retry-After (busy is transient by
// definition — the queue or a slot frees as runs drain), a queue
// timeout's 504 body records the measured wait, and a shed decision's
// body carries the admission numbers that justified it.
func writeServeError(w http.ResponseWriter, err error) {
	status, reason := statusFor(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	body := errorBody{Error: err.Error(), Reason: reason}
	var qe *serve.QueueTimeoutError
	if errors.As(err, &qe) {
		body.QueueWaitMS = qe.Wait.Milliseconds()
	}
	var she *serve.ShedError
	if errors.As(err, &she) {
		body.ActiveRuns = she.ActiveRuns
		body.RunCap = she.RunCap
		body.ResidentBytes = she.ResidentBytes
		body.BudgetBytes = she.BudgetBytes
	}
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, reason string, err error) {
	writeJSON(w, status, errorBody{Error: err.Error(), Reason: reason})
}
