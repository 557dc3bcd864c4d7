package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/stats"
)

// The batch workloads measure in a re-exec'd child of the benchmark, so
// that the child's peak RSS is the program's — container read, snapshot,
// runs — and not the generator's, and so that every set-up repetition
// starts from a fresh heap.

// childArgs is what the parent passes down on the command line.
type childArgs struct {
	mode      string // "setup" or "measure"
	workload  string
	container string
	seconds   float64
	trace     bool
	quick     bool
}

// selfCommand is this executable again with args. Its standard error passes
// through, and it dies with the benchmark even when it is frozen at the time.
func selfCommand(args ...string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd, nil
}

// selfOutput runs selfCommand and returns what it wrote to standard output.
func selfOutput(args ...string) ([]byte, error) {
	cmd, err := selfCommand(args...)
	if err != nil {
		return nil, err
	}
	return cmd.Output()
}

// spawnChild runs a child and decodes the outcome it prints last. A measuring
// child first prints a line after its warm-up ("warm") and after every op
// ("op <wall ms>", on the raw clock) and waits for a newline on its standard
// input: at each of them the yardstick runs here, with the child frozen. The
// ops and those readings — one more than ops — come back beside the outcome;
// the other modes print no such lines.
func spawnChild(a childArgs, cal *calib) (out *outcome, opMS, calMS []float64, err error) {
	trace := 0
	if a.trace {
		trace = 1
	}
	fail := func(err error) (*outcome, []float64, []float64, error) {
		return nil, nil, nil, fmt.Errorf("child %s %s: %w", a.mode, a.workload, err)
	}
	cmd, err := selfCommand("-child", a.mode, "-workload", a.workload, "-container", a.container,
		fmt.Sprintf("-seconds=%g", a.seconds), fmt.Sprintf("-trace=%d", trace), fmt.Sprintf("-quick=%t", a.quick))
	if err != nil {
		return fail(err)
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return fail(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fail(err)
	}
	if err := cmd.Start(); err != nil {
		return fail(err)
	}
	lines := bufio.NewScanner(stdout)
	lines.Buffer(nil, 1<<24)
	var last []byte
	for lines.Scan() {
		last = append(last[:0], lines.Bytes()...)
		var ms float64
		if n, _ := fmt.Sscanf(lines.Text(), "op %g", &ms); n == 1 {
			opMS = append(opMS, ms)
		} else if lines.Text() != "warm" {
			continue
		}
		calMS = append(calMS, cal.frozenWallMS(cmd.Process))
		if _, err := stdin.Write([]byte("\n")); err != nil {
			break // the child is gone; Wait says why
		}
	}
	stdin.Close()
	if err := cmd.Wait(); err != nil {
		return fail(err)
	}
	out = &outcome{}
	if err := json.Unmarshal(last, out); err != nil {
		return fail(fmt.Errorf("bad outcome: %w", err))
	}
	return out, opMS, calMS, nil
}

// handOver is the measuring child's side of that exchange.
func handOver(line string) error {
	if _, err := fmt.Println(line); err != nil {
		return err
	}
	_, err := os.Stdin.Read(make([]byte, 1))
	return err
}

// childMain is the child's entry point: it prints one outcome as JSON.
func childMain(a childArgs) error {
	w, err := lookupWorkload(a.workload)
	if err != nil {
		return err
	}
	out := &outcome{Metrics: metrics{}}
	switch {
	case a.mode == "setup":
		_, _, out.SetupS, err = setUp(w, a.container)
		if err != nil {
			return err
		}
	case a.trace:
		tr := newTracer()
		layerProbe(w, a.container, a.seconds, a.quick, tr, out)
		if err := tr.write(tracePath(w.name)); err != nil {
			return err
		}
	default:
		if err := measureBatch(w, a, out); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// setUp is what a user pays between a dataset on disk and a snapshot that
// can answer: the checksummed container read plus lcc.NewSnapshotOpts.
func setUp(w workload, container string) (*graph.Graph, *lcc.Snapshot, float64, error) {
	t0 := time.Now()
	g, err := readContainer(container)
	if err != nil {
		return nil, nil, 0, err
	}
	snap, err := lcc.NewSnapshotOpts(g, lcc.SnapshotOptions{Ranks: w.ranks})
	if err != nil {
		return nil, nil, 0, err
	}
	return g, snap, time.Since(t0).Seconds(), nil
}

// measureSetup repeats set-up in reps fresh processes and returns each one's
// time, corrected for host drift like an op is — the kernel runs here in the
// parent while no child is alive — and raw.
func measureSetup(a childArgs, reps int) (setups, raw []float64, err error) {
	a.mode = "setup"
	cal := newCalib()
	calBefore := cal.wallMS()
	for i := 0; i < reps; i++ {
		c, _, _, err := spawnChild(a, nil)
		if err != nil {
			return nil, nil, err
		}
		calAfter := cal.wallMS()
		setups = append(setups, corrected(c.SetupS, calBefore, calAfter))
		raw = append(raw, c.SetupS)
		calBefore = calAfter
	}
	return setups, raw, nil
}

// measureBatch is the measuring child's untraced pass: one warm-up op, then
// ops back to back for a.seconds, handing the cores to the parent's yardstick
// between them, then the checks. It times on the raw clock; the parent
// corrects.
func measureBatch(w workload, a childArgs, out *outcome) error {
	g, snap, _, err := setUp(w, a.container)
	if err != nil {
		return err
	}
	r := &runner{snap: snap, out: out, ref: map[bool]fingerprint{}}
	res, _ := r.run(w.opt) // warm-up: pools fill, lazy set-up finishes
	if res == nil {
		return nil
	}
	if err := handOver("warm"); err != nil {
		return err
	}
	started := time.Now()
	for n := 0; n < 4 || time.Since(started).Seconds() < a.seconds; n++ {
		_, wall := r.run(w.opt)
		if err := handOver(fmt.Sprintf("op %g", wall*1e3)); err != nil {
			return err
		}
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	out.Metrics.set("peak_rss_mb", rss, "MB")

	// Checks, after the numbers are taken so they cost no measured time.
	// The ops above already had to agree with the warm-up; the serial run
	// shares their reference, so it must agree with Workers=nproc too.
	r.run(withWorkers(w.opt, 1))
	if err := checkTruth(res, lcc.SharedLCC(g, intersect.MethodHybrid)); err != nil {
		out.problem("%v", err)
	}
	fp := r.ref[w.opt.Caching]
	out.Fingerprint = &fp
	return nil
}

// measureOps is a batch workload's untraced pass as the parent sees it: the
// measuring child, whose raw ops and the yardstick readings around them
// become the drift-corrected metrics, between two clusters of set-up
// repetitions, so that one burst on the host cannot reach most of them.
func measureOps(a childArgs, arcs int) (*outcome, error) {
	before, after := 7, 8
	if a.quick {
		before, after = 1, 1
	}
	setups, rawSetups, err := measureSetup(a, before)
	if err != nil {
		return nil, err
	}
	out, rawMS, calMS, err := spawnChild(a, newCalib())
	if err != nil {
		return nil, err
	}
	s, r, err := measureSetup(a, after)
	if err != nil {
		return nil, err
	}
	out.SetupS, out.Audit.SetupRawS = stats.Median(append(setups, s...)), stats.Median(append(rawSetups, r...))
	if len(rawMS) == 0 {
		return out, nil // the warm-up failed: out says how
	}
	var opMS []float64
	var busyMS float64 // corrected time inside ops, their GC included; the hand-overs are not
	for i, raw := range rawMS {
		opMS = append(opMS, corrected(raw, calMS[i], calMS[i+1]))
		busyMS += opMS[i]
	}
	out.Metrics.set("op_p50_ms", stats.Median(opMS), "ms")
	out.Metrics.set("arcs_per_s", float64(arcs)*float64(len(opMS))/(busyMS/1e3), "1/s")
	out.Audit.OpP50RawMS, out.Audit.CalibP50MS = stats.Median(rawMS), stats.Median(calMS)
	return out, nil
}

// peakRSSMB reads VmHWM, the peak resident set of a process.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func tracePath(workload string) string {
	return filepath.Join(outDir(), "trace-"+workload+".json")
}
