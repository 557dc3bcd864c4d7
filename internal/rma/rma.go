package rma

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sched"
)

// Comm is a simulated MPI communicator: a world of p ranks plus the cost
// model of the machine they run on.
type Comm struct {
	p     int
	model CostModel
	pool  *sched.Pool

	// observer, when set, sees every charge of every rank created from this
	// world (tape.go); it must be set before RunCtx.
	observer ChargeObserver

	// faults is the deterministic fault schedule every rank binds at
	// construction (fault.go); nil leaves the plane off at zero cost.
	faults *fault.Spec

	// prog, when set, receives out-of-band run-progress ticks (sched
	// .Progress): one per masked checkpoint poll per rank, one per barrier
	// round close. Host-side diagnostics for the serve watchdog only —
	// never observed by the simulated clocks.
	prog *sched.Progress

	mu      sync.Mutex
	windows []*Window
	byID    [][]*Rank // every Rank handle created, grouped by id (staged-op commit order)
}

// NewComm creates a world of p ranks whose bodies run on up to GOMAXPROCS
// concurrent worker goroutines (see NewCommWorkers).
func NewComm(p int, model CostModel) *Comm {
	return NewCommWorkers(p, model, 0)
}

// NewCommWorkers creates a world of p ranks bounded to the given number of
// concurrently executing rank bodies. workers <= 0 selects GOMAXPROCS.
// Results are bit-identical at every worker count: rank state is
// rank-local, and the only cross-rank writes — accumulates into writable
// windows — are staged per (origin, target) and committed in origin-rank
// order at barriers (DESIGN.md §4).
func NewCommWorkers(p int, model CostModel, workers int) *Comm {
	if p < 1 {
		panic(fmt.Sprintf("rma: need at least one rank, got %d", p))
	}
	return &Comm{p: p, model: model, pool: sched.New(workers), byID: make([][]*Rank, p)}
}

// WindowKind identifies the storage and aliasing discipline of a window.
// The modeled communication cost is identical across kinds — only the
// host-side behaviour of Get differs (snapshot copy vs. aliased view); see
// DESIGN.md §2 for the full aliasing contract.
type WindowKind uint8

const (
	// WritableBytes is the classic window: a byte region peers may
	// accumulate into (AccumulateBatch). Get snapshots the region at issue time into a
	// request-owned buffer.
	WritableBytes WindowKind = iota
	// ReadOnlyBytes exposes immutable byte data: Get returns an aliased
	// subslice of the target region, no copy. AccumulateBatch panics.
	ReadOnlyBytes
	// ReadOnlyOffsets exposes an immutable CSR offsets array as its lists'
	// (start,end) records (Fig. 3), record i at byte 16·i; see ViewUint64s.
	ReadOnlyOffsets
	// ReadOnlyVertices exposes immutable []graph.V data natively (the
	// adjacency arrays of Fig. 3); Get returns an aliased []graph.V view
	// via Request.Vertices. Offsets and sizes remain byte-addressed.
	ReadOnlyVertices
	// CompressedVertices exposes immutable vertex lists stored host-side as
	// varint/delta-compressed runs (graph.CompressedAdj). The window's
	// byte geometry is the PLAIN image — SizeAt, offsets, sizes, and
	// therefore every charge and cache key are identical to an equivalent
	// ReadOnlyVertices window; compression is invisible to the model plane
	// (DESIGN.md §9). Gets must address whole vertex runs and decode into
	// request-owned storage: Request.Vertices returns a buffer the request
	// reuses for its next get, not a window alias.
	CompressedVertices
)

func (k WindowKind) String() string {
	switch k {
	case WritableBytes:
		return "writable-bytes"
	case ReadOnlyBytes:
		return "readonly-bytes"
	case ReadOnlyOffsets:
		return "readonly-offsets"
	case ReadOnlyVertices:
		return "readonly-vertices"
	case CompressedVertices:
		return "compressed-vertices"
	default:
		return fmt.Sprintf("WindowKind(%d)", uint8(k))
	}
}

// Window is a logically distributed memory region: each rank contributes a
// local region that remote peers can read with one-sided Gets ("network
// exposed" in Fig. 3 of the paper). Exactly one of loc/locU/locV/locZ is
// populated, according to kind; all public addressing is in bytes
// regardless of kind, so cost accounting and cache keys are uniform.
type Window struct {
	name string
	comm *Comm
	kind WindowKind
	loc  [][]byte               // WritableBytes / ReadOnlyBytes
	locU [][]uint64             // ReadOnlyOffsets
	locV [][]graph.V            // ReadOnlyVertices
	locZ []*graph.CompressedAdj // CompressedVertices
}

func (c *Comm) register(w *Window, nLocal int) *Window {
	if nLocal != c.p {
		panic(fmt.Sprintf("rma: window %q: got %d local regions for %d ranks", w.name, nLocal, c.p))
	}
	c.mu.Lock()
	c.windows = append(c.windows, w)
	c.mu.Unlock()
	return w
}

// CreateWindow collectively creates a writable byte window from per-rank
// local regions. local must have one entry per rank (entries may differ in
// length, and may be nil for ranks exposing nothing). Gets on a writable
// window snapshot the region at issue time.
func (c *Comm) CreateWindow(name string, local [][]byte) *Window {
	return c.register(&Window{name: name, comm: c, kind: WritableBytes, loc: local}, len(local))
}

// CreateReadOnlyWindow creates a window over immutable byte data: Get
// returns aliased views instead of copies. The caller asserts that no
// region is modified while any epoch on the window is open (the MPI RMA
// separation rules the paper's engines rely on anyway).
func (c *Comm) CreateReadOnlyWindow(name string, local [][]byte) *Window {
	return c.register(&Window{name: name, comm: c, kind: ReadOnlyBytes, loc: local}, len(local))
}

// CreateOffsetsWindow creates a read-only window over per-rank CSR offsets
// arrays, served as their (start,end) records (ReadOnlyOffsets) with no copy
// at setup and no decode at a fetch. Byte addressing: rank i exposes
// 16*(len(local[i])-1) bytes, one record per list.
func (c *Comm) CreateOffsetsWindow(name string, local [][]uint64) *Window {
	return c.register(&Window{name: name, comm: c, kind: ReadOnlyOffsets, locU: local}, len(local))
}

// CreateVertexWindow creates a read-only window natively exposing []graph.V
// regions. Byte addressing: rank i exposes 4*len(local[i]) bytes.
func (c *Comm) CreateVertexWindow(name string, local [][]graph.V) *Window {
	return c.register(&Window{name: name, comm: c, kind: ReadOnlyVertices, locV: local}, len(local))
}

// CreateCompressedVertexWindow creates a read-only window over
// varint/delta-compressed vertex lists. Byte addressing follows each
// region's plain image (4 bytes per vertex entry), so the simulated wire
// format — and with it every charge, counter, and cache key — matches an
// uncompressed vertex window bit for bit.
func (c *Comm) CreateCompressedVertexWindow(name string, local []*graph.CompressedAdj) *Window {
	return c.register(&Window{name: name, comm: c, kind: CompressedVertices, locZ: local}, len(local))
}

// Name returns the window's debug name.
func (w *Window) Name() string { return w.name }

// ReadOnly reports whether Gets on this window return aliased views.
func (w *Window) ReadOnly() bool { return w.kind != WritableBytes }

// SizeAt returns the byte length of the region rank exposes.
func (w *Window) SizeAt(rank int) int {
	switch w.kind {
	case ReadOnlyOffsets:
		return 16 * max(len(w.locU[rank])-1, 0)
	case ReadOnlyVertices:
		return 4 * len(w.locV[rank])
	case CompressedVertices:
		return w.locZ[rank].PlainBytes()
	default:
		return len(w.loc[rank])
	}
}

// ViewUint64s returns the aliased view of a byte range in a ReadOnlyOffsets
// window: the record at offset, offsets[i:i+2] for i = offset/16, when size
// is 16 and offset 16-aligned; an empty view when size is 0. Any other range
// panics.
func (w *Window) ViewUint64s(target, offset, size int) []uint64 {
	if w.kind != ReadOnlyOffsets {
		panic(fmt.Sprintf("rma: ViewUint64s on %v window %q", w.kind, w.name))
	}
	if size == 0 {
		return nil
	}
	if offset%16 != 0 || size != 16 {
		panic(fmt.Sprintf("rma: offsets window %q serves one 16-byte record, not [%d:+%d)", w.name, offset, size))
	}
	i := offset / 16
	return w.locU[target][i : i+2 : i+2]
}

// ViewVertices returns the aliased typed view of a byte range in a
// ReadOnlyVertices window. offset and size are in bytes and must be
// 4-aligned.
func (w *Window) ViewVertices(target, offset, size int) []graph.V {
	if w.kind != ReadOnlyVertices {
		panic(fmt.Sprintf("rma: ViewVertices on %v window %q", w.kind, w.name))
	}
	if offset%4 != 0 || size%4 != 0 {
		panic(fmt.Sprintf("rma: misaligned vertex view [%d:+%d) on %q", offset, size, w.name))
	}
	return w.locV[target][offset/4 : (offset+size)/4 : (offset+size)/4]
}

// ReadVertices reads a byte range of a vertex window independent of its
// storage: an aliased view for ReadOnlyVertices, a decode into buf (grown
// only if too small) for CompressedVertices — where the range must cover
// exactly one whole vertex run. It is the representation-agnostic
// counterpart of ViewVertices for callers (the engines' inline cache-hit
// path) that can supply their own buffer.
func (w *Window) ReadVertices(target, offset, size int, buf []graph.V) []graph.V {
	if w.kind == CompressedVertices {
		return w.locZ[target].DecodeAt(offset, size, buf)
	}
	return w.ViewVertices(target, offset, size)
}

// Counters aggregates a rank's communication activity; the evaluation
// harness reads these to report remote-read counts and bytes moved (the
// paper reports e.g. the remote/local read ratio). Where the rank's time
// went is its Ledger.
type Counters struct {
	Gets        int64   // one-sided reads issued to remote ranks
	LocalGets   int64   // one-sided reads that targeted the rank itself
	Puts        int64   // one-sided remote writes (accumulates)
	RemoteBytes int64   // bytes fetched from remote ranks
	LocalBytes  int64   // bytes read from the local region
	GetCost     float64 // sum of α+s·β over issued remote gets (ns)
	FlushWait   float64 // simulated time blocked in waits, flushes and barriers (ns), read off the Ledger
	Retries     int64   // failed one-sided attempts retransmitted (fault plane)
	Crashes     int64   // crash-stops recovered by restart + redo (fault plane)
}

// Merge accumulates o's activity into c. It is the one end-of-run rollup
// path: engines aggregating per-rank counters call Merge instead of
// summing fields ad hoc, so a counter added here is never silently
// dropped from a report (merge_test.go pins the field coverage). Merge is
// not concurrency-safe; aggregate after the run, from one goroutine.
func (c *Counters) Merge(o Counters) {
	c.Gets += o.Gets
	c.LocalGets += o.LocalGets
	c.Puts += o.Puts
	c.RemoteBytes += o.RemoteBytes
	c.LocalBytes += o.LocalBytes
	c.GetCost += o.GetCost
	c.FlushWait += o.FlushWait
	c.Retries += o.Retries
	c.Crashes += o.Crashes
}

// Rank is one process of the world. A Rank must be used from a single
// goroutine; different Ranks may run concurrently.
type Rank struct {
	id      int
	comm    *Comm
	clock   Clock // the rank's time, and in its ledger where it went
	ctr     Counters
	running bool // inside a RunCtx body (holds a worker slot)

	// observer, when set, sees every charge in canonical order (tape.go).
	observer ChargeObserver

	// epochs is the set of windows with an open access epoch. A flat
	// slice: every engine here holds at most three epochs at once, so a
	// linear scan beats a map lookup on every get and accumulate.
	epochs []epoch

	// Staged accumulates: cross-rank window writes buffered per target
	// until a flush or barrier commits them (staged.go). stagedOps counts
	// buffered updates so the no-accumulate hot paths pay one int check.
	staged    [][]stagedAcc
	stagedOps int

	// faults is the rank's bound fault schedule (fault.go); nil — the
	// default — keeps every issue path at one nil check of overhead.
	faults *fault.Sched

	// ckOps counts issue points for the masked cancellation poll
	// (checkpoint); ckptT is the rank's clock at its last completed
	// barrier — the recovery point a crash-stop re-executes from.
	ckOps uint32
	ckptT float64

	// prog mirrors Comm.prog (bound at construction): the watchdog's
	// progress counter, ticked on the same masked cadence as the
	// cancellation poll. nil keeps the hot path at one predictable branch.
	prog *sched.Progress

	// RunCtx allocates its ranks back to back and runs them on different
	// cores, each writing its own clock, ledger, counters and ckOps on every
	// charge. A trailing cache line keeps one rank's last written field
	// off the line holding the next rank's clock; without it that line
	// ping-pongs between cores (on a two-core host, the cached-uniform
	// benchmark's op_p50_ms rose ~8 %).
	_ [64]byte
}

// checkpointMask throttles cancellation polling: one atomic load every
// 256 issue points keeps the cancel latency far below any human-visible
// deadline while costing the hot paths a counter increment and a branch.
const checkpointMask = 0xff

// checkpoint polls run cancellation. If the surrounding RunCtx has been
// canceled, the rank unwinds here (by panic, collected by the scheduler);
// ops between two checkpoints run exactly as in an uncanceled run, so the
// poll never perturbs the charge sequence (DESIGN.md §8). The counter and
// the branch inline into every issue point; the poll itself does not.
func (r *Rank) checkpoint() {
	r.ckOps++
	if r.ckOps&checkpointMask == 0 {
		r.poll()
	}
}

// poll is checkpoint's every-256th body: the watchdog tick and the
// cancellation poll.
func (r *Rank) poll() {
	if r.prog != nil {
		r.prog.Tick(r.id)
	}
	r.comm.pool.Checkpoint()
}

// Rank constructs the handle for rank id. Each id should be obtained once;
// RunCtx obtains every rank's.
func (c *Comm) Rank(id int) *Rank {
	if id < 0 || id >= c.p {
		panic(fmt.Sprintf("rma: rank %d out of range [0,%d)", id, c.p))
	}
	r := &Rank{id: id, comm: c, observer: c.observer}
	// Every engine here opens at most three epochs (offsets, adjacency,
	// and possibly a counter window); one slab keeps LockAll append-free.
	r.epochs = make([]epoch, 0, 4)
	r.clock.SetNoise(c.model.Noise, id)
	r.faults = fault.New(c.faults, id)
	r.prog = c.prog
	c.mu.Lock()
	c.byID[id] = append(c.byID[id], r)
	c.mu.Unlock()
	return r
}

// ID returns the rank's id in [0,p).
func (r *Rank) ID() int { return r.id }

// NumRanks returns the world size of the rank's communicator.
func (r *Rank) NumRanks() int { return r.comm.p }

// Now returns the rank's simulated time in ns. Only the rank's own
// charges move its clock, each booked in the ledger.
func (r *Rank) Now() float64 { return r.clock.now }

// Counters returns a snapshot of the rank's counters, FlushWait filled in
// from the ledger's wait slots.
func (r *Rank) Counters() Counters {
	c := r.ctr
	c.FlushWait = r.clock.ledger.waits()
	return c
}

// Ledger returns a snapshot of where the rank's simulated time went.
func (r *Rank) Ledger() Ledger { return r.clock.ledger }

// Compute charges modeled computation time (ops × κ) to the rank's clock:
// fold's body, written out, since it runs once per edge.
func (r *Rank) Compute(ops int) {
	r.checkpoint()
	r.clock.Advance(ChargeOps, float64(ops)*r.comm.model.ComputePerOp)
	if r.observer != nil {
		r.observer(r.id, ChargeOps, ops, 0, r.clock.now)
	}
}

// epoch is one open access epoch: its window and its flush horizon, the
// latest completion time among the remote accumulates issued on the window.
// A flush waits for the horizon; AdvanceTo is a running max, so a horizon
// already passed costs nothing and is never reset.
type epoch struct {
	w     *Window
	until float64
}

// epochOf returns the rank's open epoch on w, nil if there is none.
func (r *Rank) epochOf(w *Window) *epoch {
	for i := range r.epochs {
		if r.epochs[i].w == w {
			return &r.epochs[i]
		}
	}
	return nil
}

// LockAll opens a passive-target access epoch on w, after which the rank
// may issue RMA operations to any peer. As §III-A stresses, this is not a
// lock and involves no synchronization; here it only flips epoch state.
func (r *Rank) LockAll(w *Window) {
	if r.epochOf(w) != nil {
		panic(fmt.Sprintf("rma: rank %d: LockAll on %q with epoch already open", r.id, w.name))
	}
	r.epochs = append(r.epochs, epoch{w: w})
}

// UnlockAll closes the access epoch on w, implying a flush. Like the real
// operation in passive mode, it is local: no peer involvement.
func (r *Rank) UnlockAll(w *Window) {
	if r.epochOf(w) == nil {
		panic(fmt.Sprintf("rma: rank %d: UnlockAll on %q without open epoch", r.id, w.name))
	}
	r.FlushAll(w)
	for i, e := range r.epochs {
		if e.w == w {
			r.epochs = append(r.epochs[:i], r.epochs[i+1:]...)
			break
		}
	}
}

// Request is an outstanding one-sided read. It is owned by its caller —
// typically a value embedded in the caller's own pipeline state — and GetInto
// refills it: the snapshot and decode buffers it keeps from one use to the
// next are what make a get allocation-free. A remote get completes only at
// its request's Wait, never at a window flush (a local one completes at
// issue), and the data accessors are valid only once it has.
type Request struct {
	rank       *Rank
	data       []byte    // byte windows: snapshot (writable) or view (read-only)
	u64        []uint64  // ReadOnlyOffsets windows: aliased view
	verts      []graph.V // ReadOnlyVertices: aliased view; CompressedVertices: decoded into vbuf
	buf        []byte    // owned snapshot storage, reused across gets
	vbuf       []graph.V // owned decode storage (CompressedVertices), reused across gets
	completeAt float64   // simulated completion time
	done       bool
}

// Data returns the bytes read by a completed get on a byte window. It
// panics if the request has not completed: the MPI RMA semantics the paper
// relies on forbid touching a get's target buffer before it completes. For
// writable windows the slice is a request-owned snapshot, valid until the
// request's next get; for ReadOnlyBytes windows it aliases the window region
// and outlives the request.
func (q *Request) Data() []byte {
	if !q.done {
		panic("rma: Data() before Wait; a get completes only at its Wait")
	}
	return q.data
}

// Uint64s returns the record read by a completed get on a ReadOnlyOffsets
// window. The view aliases the window's offsets array and outlives the
// request.
func (q *Request) Uint64s() []uint64 {
	if !q.done {
		panic("rma: Uint64s() before Wait; a get completes only at its Wait")
	}
	return q.u64
}

// Vertices returns the typed view read by a completed get on a vertex
// window. Over ReadOnlyVertices the view aliases the window region and
// outlives the request; over CompressedVertices it is request-owned decode
// storage, valid until the request's next get.
func (q *Request) Vertices() []graph.V {
	if !q.done {
		panic("rma: Vertices() before Wait; a get completes only at its Wait")
	}
	return q.verts
}

// Wait completes this single request, advancing the rank's clock to the
// request's completion time if needed (MPI_Win_flush_local on one op).
func (q *Request) Wait() {
	if q.done {
		return
	}
	q.rank.clock.AdvanceTo(ChargeGetWait, q.completeAt)
	q.done = true
}

// resolve fills the request's data fields for a get of [offset, offset+size)
// on the target region: a snapshot copy for writable windows, an aliased
// view otherwise. Snapshot-at-issue and view semantics coincide for the
// algorithms here: they only read immutable graph data during epochs, and
// MPI forbids conflicting concurrent access within an epoch anyway.
func (q *Request) resolve(w *Window, target, offset, size int) {
	switch w.kind {
	case WritableBytes:
		if cap(q.buf) < size {
			q.buf = make([]byte, size)
		}
		b := q.buf[:size]
		copy(b, w.loc[target][offset:offset+size])
		q.data = b
	case ReadOnlyBytes:
		q.data = w.loc[target][offset : offset+size : offset+size]
	case ReadOnlyOffsets:
		q.u64 = w.ViewUint64s(target, offset, size)
	case ReadOnlyVertices:
		q.verts = w.ViewVertices(target, offset, size)
	case CompressedVertices:
		q.verts = w.locZ[target].DecodeAt(offset, size, q.vbuf)
		q.vbuf = q.verts
	}
}

// GetInto issues a one-sided, non-blocking read of size bytes at offset in
// the region target exposes in w, into the caller's request q. The rank's
// clock is charged only the issue overhead; the transfer completes in the
// background at now+α+s·β, and q.Wait waits for it (this is what makes
// double buffering effective, §III-A). Reads targeting the rank itself are
// served at local-memory cost and complete immediately. A remote read first
// pays whatever the fault schedule injects at its issue point.
func (r *Rank) GetInto(q *Request, w *Window, target, offset, size int) {
	r.checkpoint()
	if r.epochOf(w) == nil {
		panic(fmt.Sprintf("rma: rank %d: Get on %q outside an access epoch", r.id, w.name))
	}
	if rl := w.SizeAt(target); offset < 0 || size < 0 || offset+size > rl {
		panic(fmt.Sprintf("rma: rank %d: Get %q target %d [%d:+%d) out of range (len %d)",
			r.id, w.name, target, offset, size, rl))
	}
	if r.stagedOps > 0 && w.kind == WritableBytes {
		// Same-origin program order: a snapshot taken after this rank's
		// own accumulates must observe them (staged.go).
		r.commitStaged(w, target)
	}
	q.rank, q.done = r, false
	q.data, q.u64, q.verts = nil, nil, nil
	q.resolve(w, target, offset, size)
	if target == r.id {
		q.done = true
		r.ctr.LocalGets++
		r.ctr.LocalBytes += int64(size)
		r.fold(ChargeGetLocal, size, r.comm.model.LocalCost(size))
		q.completeAt = r.clock.now
		return
	}
	// Fault plane: recovery charges land before the canonical op charge,
	// modeling a rank blocked in its retry loop at the issue point.
	if r.faults != nil {
		r.injectFaults(fault.ClassGet, size)
	}
	// The issue charges nothing to the clock; the in-flight duration and
	// the completion time are established here, at the canonical issue
	// point.
	cost := r.clock.PerturbDuration(r.comm.model.RemoteCost(size))
	q.completeAt = r.clock.Now() + cost
	r.ctr.Gets++
	r.ctr.RemoteBytes += int64(size)
	r.ctr.GetCost += cost
	if r.observer != nil {
		r.observer(r.id, ChargeGetRemote, size, 0, r.clock.Now())
	}
}

// FlushAll completes every outstanding write of this rank on w
// (MPI_Win_flush_all): staged accumulates on w land in the target regions,
// and the clock advances to the epoch's flush horizon, the latest
// completion time among the remote accumulates issued on w. Gets are not
// writes: each completes at its own Wait.
func (r *Rank) FlushAll(w *Window) {
	e := r.epochOf(w)
	if e == nil {
		panic(fmt.Sprintf("rma: rank %d: FlushAll on %q outside an access epoch", r.id, w.name))
	}
	if r.stagedOps > 0 {
		r.commitStaged(w, -1)
	}
	r.clock.AdvanceTo(ChargeFlushWait, e.until)
}

// RunCtx executes body on every rank concurrently — each rank on its own
// goroutine, with at most Workers (NewCommWorkers) executing at any
// moment — and returns the rank handles (with final clocks and counters)
// once all have finished. This mirrors an SPMD mpirun on a host with
// Workers cores: fully asynchronous ranks, no hidden synchronization, and
// results that are bit-identical at every worker count. Under
// sched.Pool.RunCtx's supervision ranks observe ctx cancellation at their
// issue-point checkpoints and barrier waits and unwind cleanly; a
// rank-body panic is converted into a *sched.PanicError with the rank
// attached; a deterministic abort (the crash-stop class in fail-fast
// mode) returns its error. On any non-nil error the returned ranks are
// nil — a run yields complete results or none.
func (c *Comm) RunCtx(ctx context.Context, body func(r *Rank)) ([]*Rank, error) {
	ranks := make([]*Rank, c.p)
	for i := 0; i < c.p; i++ {
		ranks[i] = c.Rank(i)
	}
	err := c.pool.RunCtx(ctx, c.p, func(i int) {
		r := ranks[i]
		r.running = true
		defer func() { r.running = false }()
		body(r)
	})
	if err != nil {
		return nil, err
	}
	return ranks, nil
}

// MaxClock returns the largest simulated finish time over ranks — the
// paper's measurement ("the longest-running node").
func MaxClock(ranks []*Rank) float64 {
	max := 0.0
	for _, r := range ranks {
		if t := r.Now(); t > max {
			max = t
		}
	}
	return max
}

// --- typed window helpers ------------------------------------------------

// EncodeUint64s serializes vals little-endian for exposure in a byte window
// (used by serialization formats; the engines expose their offsets natively
// via CreateOffsetsWindow instead).
func EncodeUint64s(vals []uint64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], v)
	}
	return out
}

// DecodeUint64s parses a buffer written by EncodeUint64s.
func DecodeUint64s(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

// EncodeVertices serializes a vertex list little-endian (4 bytes each).
func EncodeVertices(vals []graph.V) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// DecodeVertices parses a buffer written by EncodeVertices.
func DecodeVertices(b []byte) []graph.V {
	out := make([]graph.V, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}
