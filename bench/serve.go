package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/serve"
	"repro/internal/stats"
)

// serve-http drives a real lccd process. The daemon loads datasets by
// registry name only, so the generated graph reaches it the way a prepared
// dataset reaches any deployment: as the checksummed container in the disk
// cache that LCC_GRAPH_CACHE names (cmd/lccd's chaos harness feeds its
// daemons the same way).

// buildLCCD compiles cmd/lccd from the checkout into the out directory.
func buildLCCD() (string, error) {
	bin := filepath.Join(outDir(), "lccd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lccd")
	cmd.Dir = repoRoot()
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/lccd: %w\n%s", err, b)
	}
	return bin, nil
}

// writeDiskCache stores g where a daemon started with LCC_GRAPH_CACHE=dir
// finds dataset name, in the form gen itself persists (compressed).
func writeDiskCache(dir, name string, g *graph.Graph) (string, error) {
	gen.SetCacheDir(dir)
	path := gen.CachePath(name)
	return path, writeContainer(path, graph.CompressGraph(g))
}

func writeContainer(path string, st graph.Store) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteBinaryStore(f, st); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var servingRE = regexp.MustCompile(`serving on (http://\S+)`)

// addrWatcher is the daemon's stdout: it reports the address lccd prints
// once it listens and drops everything else.
type addrWatcher struct {
	buf   bytes.Buffer
	found chan string
	done  bool
}

func (a *addrWatcher) Write(p []byte) (int, error) {
	if !a.done {
		a.buf.Write(p)
		if m := servingRE.FindSubmatch(a.buf.Bytes()); m != nil {
			a.found <- string(m[1])
			a.done = true
		}
	}
	return len(p), nil
}

type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been waited for
	base   string
	client *http.Client
	// the three legs of set-up, seconds
	bootS, loadS, firstS float64
}

// bootDaemon starts lccd on an ephemeral port with a fresh state dir, waits
// for /v1/health, loads the workload's instance and asks the first query:
// exec → first answer is serve-http's set-up.
func bootDaemon(bin, cacheDir, stateDir string, w workload) (*daemon, error) {
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}
	watch := &addrWatcher{found: make(chan string, 1)}
	d := &daemon{
		cmd:    exec.Command(bin, "-addr", "127.0.0.1:0", "-state-dir", stateDir),
		exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nproc()}},
	}
	d.cmd.Env = append(os.Environ(), gen.CacheDirEnv+"="+cacheDir)
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // it is frozen at times; it must still die with us
	d.cmd.Stdout = watch
	d.cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.base = <-watch.found:
	case <-d.exited:
		return nil, fmt.Errorf("lccd exited before serving: %v", d.cmd.ProcessState)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("lccd did not start serving within 30 s")
	}
	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, err
	}
	for {
		resp, err := d.client.Get(d.base + "/v1/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 30*time.Second {
			return fail(fmt.Errorf("lccd /v1/health not 200 within 30 s (last error: %v)", err))
		}
		time.Sleep(time.Millisecond)
	}
	d.bootS = time.Since(t0).Seconds()

	var info serve.InstanceInfo
	status, _, err := d.post("/v1/load", map[string]any{
		"name": w.twin, "dataset": w.twin, "ranks": w.ranks,
		"max_concurrent": nproc(), "queue_depth": 2 * nproc(),
	}, &info)
	if err != nil || status != http.StatusOK || info.State != "ready" {
		return fail(fmt.Errorf("/v1/load: status %d state %q err %v", status, info.State, err))
	}
	d.loadS = time.Since(t0).Seconds() - d.bootS

	var first serve.QueryResult
	if status, _, err := d.post("/v1/run", runBody(w, 1), &first); err != nil || status != http.StatusOK {
		return fail(fmt.Errorf("first /v1/run: status %d err %v", status, err))
	}
	d.firstS = time.Since(t0).Seconds() - d.bootS - d.loadS
	return d, nil
}

func (d *daemon) setupS() float64 { return d.bootS + d.loadS + d.firstS }

// stop drains the daemon with SIGTERM and waits until the process is gone;
// stopping a stopped daemon does nothing.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

func runBody(w workload, workers int) map[string]any {
	return map[string]any{"instance": w.twin, "method": "hybrid", "workers": workers}
}

// post sends one JSON request and decodes a 200 reply into out.
func (d *daemon) post(path string, body, out any) (status int, replyBytes int, err error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, 0, err
	}
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, len(raw), err
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(raw, out)
	}
	return resp.StatusCode, len(raw), err
}

// counters reads the instance's served-run counters from /v1/ps.
func (d *daemon) counters() (serve.Counters, error) {
	resp, err := d.client.Get(d.base + "/v1/ps")
	if err != nil {
		return serve.Counters{}, err
	}
	defer resp.Body.Close()
	var ps struct {
		Instances []serve.InstanceInfo `json:"instances"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ps); err != nil {
		return serve.Counters{}, err
	}
	if len(ps.Instances) != 1 {
		return serve.Counters{}, fmt.Errorf("/v1/ps lists %d instances, want 1", len(ps.Instances))
	}
	return ps.Instances[0].Counters, nil
}

func replyFingerprint(q serve.QueryResult) fingerprint {
	return fingerprint{
		Triangles: q.Triangles, SumT: q.SumT,
		ScoreBits: hexBits(q.ScoreBits), SimBits: hexBits(math.Float64bits(q.SimTime)),
	}
}

// request is one client-observed /v1/run.
type request struct {
	start   time.Time
	latency time.Duration // request sent → full reply body read
	reply   serve.QueryResult
	bytes   int
	ok      bool // 200 and decoded
}

// slice has every client connection send perClient requests back to back (a
// closed loop: the next request leaves only when the reply is in) and
// returns when all are answered, so the daemon can be frozen for the
// yardstick with no request in flight.
func (d *daemon) slice(w workload, perClient int) []request {
	out := make([][]request, nproc())
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				rq := request{start: time.Now()}
				status, n, err := d.post("/v1/run", runBody(w, 1), &rq.reply)
				rq.latency = time.Since(rq.start)
				rq.bytes = n
				rq.ok = err == nil && status == http.StatusOK
				out[c] = append(out[c], rq)
			}
		}()
	}
	wg.Wait()
	var all []request
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// runHTTP is the serve-http workload, both passes.
func runHTTP(w workload, g *graph.Graph, cacheDir, container string, seconds float64, trace, quick bool, out *outcome) error {
	bin, err := buildLCCD()
	if err != nil {
		return err
	}
	// Set-up is booted in two clusters, before and after the window, so that
	// one burst on the host cannot reach most of the boots. Every boot sits
	// between two yardstick readings, taken while no daemon is alive or the
	// booted one is frozen, and is corrected for host drift like an op is.
	cal := newCalib()
	var d *daemon
	var setups, rawSetups, bootS, loadS, firstS []float64
	boot := func(n int) error {
		calBefore := cal.wallMS()
		for i := 0; i < n; i++ {
			if d != nil {
				d.stop()
			}
			if d, err = bootDaemon(bin, cacheDir, filepath.Join(outDir(), "lccd-state"), w); err != nil {
				return err
			}
			calAfter := cal.frozenWallMS(d.cmd.Process)
			setups, rawSetups = append(setups, corrected(d.setupS(), calBefore, calAfter)), append(rawSetups, d.setupS())
			bootS, loadS, firstS = append(bootS, d.bootS), append(loadS, d.loadS), append(firstS, d.firstS)
			calBefore = calAfter
		}
		return nil
	}
	bootsBefore, bootsAfter := 5, 4
	if quick {
		bootsBefore, bootsAfter = 1, 0
	}
	if err := boot(bootsBefore); err != nil {
		return err
	}
	defer func() {
		if d != nil { // nil after a failed boot, which has stopped its own
			d.stop()
		}
	}()

	var tr *tracer
	if trace {
		tr = newTracer()
		seconds /= 2 // the other half goes to the in-process layer probe
	}
	before, err := d.counters()
	if err != nil {
		return err
	}
	truth := lcc.SharedLCC(g, intersect.MethodHybrid)
	want := fingerprint{Triangles: truth.Triangles, ScoreBits: hexBits(serve.ScoreBits(truth.LCC))}
	var ref *fingerprint

	perClient := 8 // ~0.4 s between calibrations at ~50 ms a query
	if quick {
		perClient = 1
	}
	var okCount, op int
	var latMS, rawMS, calMS, wallMS, queueMS, httpMS, replyB []float64
	var busyMS, rawBusyMS float64
	started := time.Now()
	calBefore := cal.frozenWallMS(d.cmd.Process)
	for n := 0; n < 3 || time.Since(started).Seconds() < seconds; n++ {
		t0 := time.Now()
		reqs := d.slice(w, perClient)
		sliceMS := msSince(t0)
		calAfter := cal.frozenWallMS(d.cmd.Process)
		calMS = append(calMS, calAfter)
		busyMS += corrected(sliceMS, calBefore, calAfter)
		rawBusyMS += sliceMS
		for _, rq := range reqs {
			op++
			out.Attempted++
			fp := replyFingerprint(rq.reply)
			switch {
			case !rq.ok:
				out.Failed++
				continue
			case ref == nil:
				ref = &fp
			case !fp.equal(*ref):
				out.Failed++
				out.problem("reply %+v differs from the first %+v", fp, *ref)
				continue
			}
			okCount++
			ms := float64(rq.latency.Nanoseconds()) / 1e6
			latMS = append(latMS, corrected(ms, calBefore, calAfter))
			rawMS = append(rawMS, ms)
			wallMS = append(wallMS, float64(rq.reply.Wall.Nanoseconds())/1e6)
			queueMS = append(queueMS, float64(rq.reply.QueueWait.Nanoseconds())/1e6)
			httpMS = append(httpMS, float64((rq.latency-rq.reply.Wall-rq.reply.QueueWait).Nanoseconds())/1e6)
			replyB = append(replyB, float64(rq.bytes))
			if tr != nil {
				// The reply says how long the query queued and ran, not
				// when: centre the two inside the request, so what is left
				// on either side is the HTTP and JSON share.
				inner := rq.start.Add((rq.latency - rq.reply.QueueWait - rq.reply.Wall) / 2)
				opID := tr.add("op", 0, op, rq.start, rq.latency)
				httpID := tr.add("lccd.http", opID, op, rq.start, rq.latency)
				tr.add("serve.queue_wait", httpID, op, inner, rq.reply.QueueWait)
				tr.add("serve.run", httpID, op, inner.Add(rq.reply.QueueWait), rq.reply.Wall)
			}
		}
		calBefore = calAfter
	}
	after, err := d.counters()
	if err != nil {
		return err
	}
	if ref == nil {
		out.problem("no /v1/run succeeded")
		return nil
	}
	out.Fingerprint = ref

	// Checks: ground truth, Workers=nproc against the workers=1 replies, and
	// the daemon's own books against what the clients saw.
	if ref.Triangles != want.Triangles || ref.ScoreBits != want.ScoreBits {
		out.problem("reply %+v differs from ground truth %+v", *ref, want)
	}
	var wide serve.QueryResult
	if status, _, err := d.post("/v1/run", runBody(w, nproc()), &wide); err != nil || status != http.StatusOK {
		out.problem("/v1/run workers=%d: status %d err %v", nproc(), status, err)
	} else if fp := replyFingerprint(wide); !fp.equal(*ref) {
		out.problem("workers=%d reply %+v differs from workers=1 %+v", nproc(), fp, *ref)
	}
	served, rejected := after.Served-before.Served, after.Rejected-before.Rejected
	if served != int64(okCount) || rejected != 0 || after.Failed != before.Failed {
		out.problem("/v1/ps: served moved by %d, rejected by %d, failed by %d; clients saw %d replies",
			served, rejected, after.Failed-before.Failed, okCount)
	}

	rss, err := peakRSSMB(d.cmd.Process.Pid) // of the daemon that served the window
	if err != nil {
		return err
	}
	if err := boot(bootsAfter); err != nil {
		return err
	}
	out.SetupS, out.Audit.SetupRawS = stats.Median(setups), stats.Median(rawSetups)

	m := out.Metrics
	if !trace {
		out.Audit.OpP50RawMS, out.Audit.CalibP50MS = stats.Median(rawMS), stats.Median(calMS)
		m.set("op_p50_ms", stats.Median(latMS), "ms")
		m.set("arcs_per_s", float64(g.NumArcs())*float64(okCount)/(busyMS/1e3), "1/s")
		m.set("peak_rss_mb", rss, "MB")
		return nil
	}
	m.set("lccd.boot_s", stats.Median(bootS), "s")
	m.set("lccd.load_s", stats.Median(loadS), "s")
	m.set("lccd.first_answer_s", stats.Median(firstS), "s")
	m.set("lccd.http_overhead_p50_ms", stats.Median(httpMS), "ms")
	m.set("lccd.reply_bytes", stats.Median(replyB), "B")
	m.set("lccd.latency_p99_ms", sorted(rawMS)[len(rawMS)*99/100], "ms")
	m.set("serve.run_wall_p50_ms", stats.Median(wallMS), "ms")
	m.set("serve.queue_wait_p50_ms", stats.Median(queueMS), "ms")
	m.set("serve.throughput_qps", float64(okCount)/(rawBusyMS/1e3), "1/s")
	m.set("serve.served_delta", float64(served), "count")
	m.set("serve.rejected_delta", float64(rejected), "count")
	d.stop() // the in-process probe should have the cores to itself
	probe := &outcome{Metrics: m}
	layerProbe(w, container, seconds, quick, tr, probe)
	out.Attempted += probe.Attempted
	out.Failed += probe.Failed
	out.Problems = append(out.Problems, probe.Problems...)
	if probe.Fingerprint != nil && !probe.Fingerprint.equal(*ref) {
		out.problem("in-process result %+v differs from lccd's %+v", *probe.Fingerprint, *ref)
	}
	// The probe's own p50/tail are of in-process runs; this workload's ops
	// are HTTP requests.
	m.set("host.op_p50_raw_ms", stats.Median(rawMS), "ms")
	if pct, v, ok := tail(rawMS); ok {
		m.set("host.op_tail_raw_ms", v, "ms")
		m.set("host.op_tail_pct", pct, "%")
	}
	return tr.write(tracePath(w.name))
}
