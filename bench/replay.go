package main

import (
	"time"

	"repro/internal/clampi"
	"repro/internal/graph"
	"repro/internal/lcc"
	"repro/internal/part"
	"repro/internal/rma"
)

type replayResult struct {
	rmaNS, clampiNS, hitRatio float64
}

var replaySink int

// replay pushes rank 0's captured remote-read stream through the rma and
// clampi packages' public API alone: a fresh communicator, an adjacency
// window over part.ExtractAll's lists, one get (or cached get) per read,
// completed before the next. It isolates the two substrates' host cost per
// get from the engine's pipelining and kernels. The engine overlaps the
// next get with the current wait, so the replay's insert order — and with
// it the hit ratio — can differ a little from the engine's;
// clampi.rank0_hit_ratio is printed beside it for that reason.
func replay(n int, pt *part.Partition, locals []*part.LocalCSR, stream []graph.V, opt lcc.Options) replayResult {
	var out replayResult
	if len(stream) == 0 {
		return out
	}
	type coord struct{ owner, off, size int }
	coords := make([]coord, len(stream))
	for i, v := range stream {
		o, li := pt.Owner(v), pt.LocalIndex(v)
		start, end := locals[o].Offsets[li], locals[o].Offsets[li+1]
		coords[i] = coord{o, int(start) * 4, int(end-start) * 4}
	}
	adj := make([][]graph.V, len(locals))
	for r, lc := range locals {
		adj[r] = lc.Adj
	}
	fresh := func() (*rma.Rank, *rma.Window) {
		comm := rma.NewComm(len(locals), rma.DefaultCostModel())
		w := comm.CreateVertexWindow("adj", adj)
		r0 := comm.Rank(0)
		r0.LockAll(w)
		return r0, w
	}

	r0, w := fresh()
	var q rma.Request
	t0 := time.Now()
	for _, c := range coords {
		r0.GetInto(&q, w, c.owner, c.off, c.size)
		q.Wait()
		replaySink += len(q.Vertices())
	}
	out.rmaNS = float64(time.Since(t0).Nanoseconds()) / float64(len(coords))
	r0.UnlockAll(w)
	if !opt.Caching {
		return out
	}

	r0, w = fresh()
	// Bucket count by the engine's §III-B-1 rule for C_adj (lcc keeps it
	// unexported): n·f² entries for a cache holding share f of ~32 B/vertex.
	f := min(1, float64(opt.AdjCacheBytes)/(float64(n)*32))
	c := clampi.New(r0, w, clampi.Config{
		Capacity: opt.AdjCacheBytes, Buckets: max(1, int(float64(n)*f*f)), Mode: clampi.AlwaysCache,
	})
	t0 = time.Now()
	for _, cd := range coords {
		var cq *clampi.Request
		if opt.AdjScorePolicy == lcc.ScoreDegree {
			cq = c.GetScored(cd.owner, cd.off, cd.size, float64(cd.size/4))
		} else {
			cq = c.Get(cd.owner, cd.off, cd.size)
		}
		cq.Wait()
		replaySink += len(cq.Vertices())
		cq.Release()
	}
	out.clampiNS = float64(time.Since(t0).Nanoseconds()) / float64(len(coords))
	st := c.Stats()
	out.hitRatio = float64(st.Hits) / float64(st.Hits+st.Misses)
	r0.UnlockAll(w)
	return out
}
