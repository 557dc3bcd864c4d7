// Command lccrun computes triangle counts and local clustering
// coefficients with the paper's fully asynchronous distributed engine on a
// simulated multi-rank machine, printing the performance counters the
// evaluation reports.
//
// Usage:
//
//	lccrun -dataset lj-sim -ranks 16 -cache -degree-scores
//	lccrun -dataset lj-sim -ranks 16 -engine push
//	lccrun -dataset lj-sim -ranks 16 -engine replicated -replicas 4
//	lccrun -in graph.csr -ranks 8 -scheme cyclic -top 10 -delegate 1048576
//	lccrun -dataset lj-sim -ranks 16 -timeout 30s
//	graphgen -dataset fb-sim -format edgelist | lccrun -ranks 2 -format edgelist -in -
//
// Exit codes: 0 on success, 1 on any error, 3 when -timeout canceled the
// run (the simulated ranks unwind at their next checkpoint and no partial
// results are printed).
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/part"
	"repro/internal/sched"
)

// exitDeadline is the distinct exit code for a run canceled by -timeout,
// so scripts can tell "too slow" from "wrong".
const exitDeadline = 3

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lccrun:", err)
		if errors.Is(err, sched.ErrRunCanceled) {
			os.Exit(exitDeadline)
		}
		os.Exit(1)
	}
}

// run parses args and executes one engine run, writing the report to out.
// All failures — bad flags, unreadable input, engine errors — surface as a
// returned error so main can exit non-zero in exactly one place.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lccrun", flag.ContinueOnError)
	var (
		dataset   = fs.String("dataset", "", "registered dataset name (see graphgen -list)")
		in        = fs.String("in", "", `input graph file, or "-" for stdin`)
		format    = fs.String("format", "binary", `input format: "binary", "edgelist", or "mtx" (MatrixMarket)`)
		directed  = fs.Bool("directed", false, "treat edge-list input as directed")
		ranks     = fs.Int("ranks", 4, "number of simulated computing nodes")
		workers   = fs.Int("workers", 0, "host worker goroutines executing simulated ranks (0 = GOMAXPROCS); results are identical at any setting")
		scheme    = fs.String("scheme", "block", `1D distribution: "block", "cyclic", or "block-arcs"`)
		method    = fs.String("method", "hybrid", `intersection method: "hybrid", "ssi" or "binary"`)
		caching   = fs.Bool("cache", false, "enable CLaMPI RMA caching (C_offsets + C_adj)")
		offBytes  = fs.Int("cache-offsets", 0, "C_offsets capacity in bytes (0 = paper sizing)")
		adjBytes  = fs.Int("cache-adj", 0, "C_adj capacity in bytes (0 = paper sizing)")
		degScores = fs.Bool("degree-scores", false, "use degree-centrality eviction scores for C_adj (§III-B-2)")
		noOverlap = fs.Bool("no-overlap", false, "disable double buffering (§III-A)")
		engine    = fs.String("engine", "pull", `engine: "pull" (Algorithm 3), "push" (§VI ii dichotomy), or "replicated" (§VI i 1.5D)`)
		pushAgg   = fs.String("push-agg", "batched", `push contribution shipping: "batched" or "direct"`)
		replicas  = fs.Int("replicas", 2, "graph copies c for -engine replicated (must divide -ranks)")
		delegate  = fs.Int("delegate", 0, "static vertex-delegation budget in bytes per rank (0 = off)")
		top       = fs.Int("top", 5, "print the top-K vertices by LCC")
		faults    = fs.String("faults", "", `deterministic fault schedule, e.g. "seed=1,get=0.01,acc=0.02" or "chaos,seed=3" (empty = off); results are unchanged, only simulated time grows`)
		timeout   = fs.Duration("timeout", 0, "cancel the run after this host-time budget (0 = none); a deadlined run prints nothing and exits with code 3")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ranks < 1 || *replicas < 1 {
		return fmt.Errorf("-ranks %d, -replicas %d: both must be at least 1", *ranks, *replicas)
	}
	if *workers < 0 || *offBytes < 0 || *adjBytes < 0 || *delegate < 0 || *top < 0 || *timeout < 0 {
		return fmt.Errorf("-workers %d, -cache-offsets %d, -cache-adj %d, -delegate %d, -top %d, -timeout %v: none may be negative",
			*workers, *offBytes, *adjBytes, *delegate, *top, *timeout)
	}

	faultSpec, err := fault.ParseSpec(*faults)
	if err != nil {
		return fmt.Errorf("-faults: %w", err)
	}

	meth, err := intersect.ParseMethod(*method)
	if err != nil {
		return fmt.Errorf("-method: %w", err)
	}

	sch, err := part.ParseScheme(*scheme)
	if err != nil {
		return fmt.Errorf("-scheme: %w", err)
	}

	var agg lcc.PushAggregation
	switch *pushAgg {
	case "batched":
		agg = lcc.PushBatched
	case "direct":
		agg = lcc.PushDirect
	default:
		return fmt.Errorf(`-push-agg: unknown value %q (want "batched" or "direct")`, *pushAgg)
	}

	// A flag for a mode the run is not in would be ignored in silence. Visit
	// sees only the flags the command line set, so no default trips this.
	needs := map[string]string{"cache-adj": "-cache", "cache-offsets": "-cache", "degree-scores": "-cache",
		"push-agg": "-engine push", "replicas": "-engine replicated"}
	mode := map[string]bool{"-cache": *caching, "-engine " + *engine: true}
	var stray []string
	fs.Visit(func(f *flag.Flag) {
		if need := needs[f.Name]; need != "" && !mode[need] {
			stray = append(stray, fmt.Sprintf("-%s needs %s", f.Name, need))
		}
	})
	if len(stray) > 0 {
		return errors.New(strings.Join(stray, "; "))
	}

	g, err := loadGraph(*dataset, *in, *format, *directed)
	if err != nil {
		return err
	}

	opt := lcc.Options{
		Ranks:        *ranks,
		Workers:      *workers,
		Scheme:       sch,
		Method:       meth,
		DoubleBuffer: !*noOverlap,
		Caching:      *caching,
		Faults:       faultSpec,
	}
	if *degScores {
		opt.AdjScorePolicy = lcc.ScoreDegree
	}
	if *caching {
		off, adj := lcc.PaperCacheBytes(g.NumVertices())
		opt.OffsetsCacheBytes, opt.AdjCacheBytes = cmp.Or(*offBytes, off), cmp.Or(*adjBytes, adj)
	}

	opt.DelegateBytes = *delegate

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var res *lcc.Result
	switch *engine {
	case "pull":
		res, err = lcc.RunCtx(ctx, g, opt)
	case "push":
		res, err = lcc.RunPushCtx(ctx, g, lcc.PushOptions{Options: opt, Aggregation: agg})
	case "replicated":
		res, err = lcc.RunReplicatedCtx(ctx, g, lcc.ReplicatedOptions{Options: opt, Replication: *replicas})
	default:
		err = fmt.Errorf("unknown engine %q", *engine)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "graph: %s, n=%d, m=%d, csr=%d bytes\n",
		g.Kind(), g.NumVertices(), g.NumEdges(), g.CSRSizeBytes())
	fmt.Fprintf(out, "engine=%s ranks=%d scheme=%s method=%s caching=%v overlap=%v\n",
		*engine, *ranks, sch, *method, *caching, !*noOverlap)
	if *delegate > 0 {
		fmt.Fprintf(out, "delegation: %d vertices, %d bytes per rank\n",
			res.DelegatedVertices, res.DelegationBytes)
	}
	fmt.Fprintf(out, "triangles: %d (closed-triplet sum %d)\n", res.Triangles, res.SumT)
	fmt.Fprintf(out, "simulated time: %.3f ms (slowest rank)\n", res.SimTime/1e6)
	fmt.Fprintf(out, "remote reads: %.1f%% of adjacency fetches; comm share of critical path: %.1f%%\n",
		100*res.RemoteReadFraction(), 100*res.CommFraction())
	if *caching {
		// The compulsory share of the misses is what no larger cache saves.
		var off, adj [2]int64
		for _, s := range res.PerRank {
			off[0], off[1] = off[0]+s.OffsetsCache.CompulsoryMisses, off[1]+s.OffsetsCache.Misses
			adj[0], adj[1] = adj[0]+s.AdjCache.CompulsoryMisses, adj[1]+s.AdjCache.Misses
		}
		offRate, adjRate := res.CacheMissRates()
		fmt.Fprintf(out, "cache miss rates: C_offsets %.3f (%.0f%% compulsory), C_adj %.3f (%.0f%% compulsory); avg remote read %.2f µs\n",
			offRate, share(off), adjRate, share(adj), res.AvgRemoteReadTime()/1e3)
	}

	if *top > 0 {
		type vl struct {
			v graph.V
			l float64
		}
		all := make([]vl, 0, len(res.LCC))
		for v, l := range res.LCC {
			all = append(all, vl{graph.V(v), l})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].l != all[j].l {
				return all[i].l > all[j].l
			}
			return all[i].v < all[j].v
		})
		k := *top
		if k > len(all) {
			k = len(all)
		}
		fmt.Fprintf(out, "top %d vertices by LCC:\n", k)
		for _, x := range all[:k] {
			fmt.Fprintf(out, "  v%-8d lcc=%.4f deg=%d\n", x.v, x.l, g.OutDegree(x.v))
		}
	}
	return nil
}

// share is 100·part/whole for a [part, whole] pair, 0 when whole is.
func share(pw [2]int64) float64 {
	if pw[1] == 0 {
		return 0
	}
	return 100 * float64(pw[0]) / float64(pw[1])
}

func loadGraph(dataset, in, format string, directed bool) (*graph.Graph, error) {
	switch {
	case dataset != "":
		return gen.Load(dataset)
	case in == "-":
		return readGraph(os.Stdin, format, directed)
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return readGraph(f, format, directed)
	default:
		return nil, fmt.Errorf("specify -dataset or -in")
	}
}

func readGraph(f *os.File, format string, directed bool) (*graph.Graph, error) {
	kind := graph.Undirected
	if directed {
		kind = graph.Directed
	}
	switch format {
	case "binary":
		return graph.ReadBinary(f)
	case "edgelist":
		return graph.ReadEdgeList(f, kind)
	case "mtx":
		// MatrixMarket carries its own directedness in the header.
		return graph.ReadMatrixMarket(f)
	default:
		return nil, fmt.Errorf("unknown format %q", format)
	}
}
