package graph

import (
	"runtime"
	"sync"
)

// applyScratch is ApplyBatchParallel's per-batch working set, retained on
// the graph so a batch allocates nothing but its applied result and one
// goroutine per helper worker.
type applyScratch struct {
	// took[i] records whether update i took effect; decided on the
	// out-direction pass (the authoritative one), then mirrored by the
	// in-direction pass with weights[i] as the edge's weight.
	took    []bool
	weights []Weight
	// byOut / byIn hold the batch indices bucketed by the worker owning
	// the source / destination; worker w walks byOut[outStart[w]:
	// outStart[w+1]] and then byIn[inStart[w]:inStart[w+1]], in batch order.
	byOut, byIn       []int32
	outStart, inStart []int32
	count             []int32
	// outDone is the barrier between the passes; done counts the helper
	// workers out.
	outDone, done sync.WaitGroup
}

// shardOf hashes v to one of workers shards with the hub index's Fibonacci
// hash (the top 32 bits of v·2^64/phi, scaled to [0, workers)). Unlike
// v % workers it does not inherit the skew of the ids' low bits, which RMAT
// sets with probability c+d only.
func shardOf(v VertexID, workers int) int {
	return int((uint64(v) * hubHashMul >> 32) * uint64(workers) >> 32)
}

// bucket counting-sorts the batch indices by the shard of each update's
// source (or destination, when byDst) into order, writing each shard's
// first position to start (len workers+1); count is workers long scratch.
// The sort is stable, so every vertex sees its updates in batch order.
func bucket(b Batch, workers int, byDst bool, order, start, count []int32) {
	key := func(u *Update) VertexID {
		if byDst {
			return u.Dst
		}
		return u.Src
	}
	clear(count)
	for i := range b {
		count[shardOf(key(&b[i]), workers)]++
	}
	start[0] = 0
	for w, c := range count {
		start[w+1] = start[w] + c
		count[w] = start[w]
	}
	for i := range b {
		s := shardOf(key(&b[i]), workers)
		order[count[s]] = int32(i)
		count[s]++
	}
}

// ApplyBatchParallel applies a batch with vertex-sharded parallelism: the
// batch is bucketed once by the hashed shard of each update's source and of
// its destination, then every worker walks only its own buckets — mutating
// the out-lists of the sources it owns, then, once all workers are past
// that pass, the in-lists of the destinations it owns — so no locks are
// needed. Within one vertex the original update order is preserved, so the
// graph and the result are identical to ApplyBatch's.
//
// It returns the updates that actually took effect (in batch order), which
// downstream engines use to drive refinement. This mirrors the paper's
// workflow where Workers "update the graph data in parallel" while the
// Manager maintains D-trees (Fig 9).
func (g *Streaming) ApplyBatchParallel(b Batch, workers int) Batch {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(b) < 256 {
		return g.ApplyBatch(b)
	}
	s := &g.scr
	s.took = grow(s.took, len(b))
	s.weights = grow(s.weights, len(b))
	s.byOut = grow(s.byOut, len(b))
	s.byIn = grow(s.byIn, len(b))
	s.outStart = grow(s.outStart, workers+1)
	s.inStart = grow(s.inStart, workers+1)
	s.count = grow(s.count, workers)
	bucket(b, workers, false, s.byOut, s.outStart, s.count)
	bucket(b, workers, true, s.byIn, s.inStart, s.count)

	s.outDone.Add(workers)
	s.done.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go g.applyShard(b, w)
	}
	g.applyShard(b, 0)
	s.done.Wait()

	n := 0
	for _, t := range s.took {
		if t {
			n++
		}
	}
	applied := make(Batch, 0, n)
	for i, u := range b {
		if s.took[i] {
			u.W = s.weights[i]
			applied = append(applied, u)
			if u.Del {
				g.m--
			} else {
				g.m++
			}
		}
	}
	return applied
}

// applyShard is worker w's part of ApplyBatchParallel: the out-direction
// pass over its source bucket, the barrier, then the in-direction pass over
// its destination bucket. Worker 0 is the caller; the others are counted
// out on done.
func (g *Streaming) applyShard(b Batch, w int) {
	s := &g.scr
	for _, i := range s.byOut[s.outStart[w]:s.outStart[w+1]] {
		u := &b[i]
		s.took[i] = false
		if u.Del {
			if wt, ok := g.removeHalfIdx(g.out, g.outIdx, u.Src, u.Dst, true); ok {
				s.took[i] = true
				s.weights[i] = wt
			}
		} else if lookupHalf(g.out[u.Src], g.outIdx[u.Src], u.Dst) < 0 {
			g.appendHalf(g.out, g.outIdx, u.Src, Half{To: u.Dst, W: u.W})
			s.took[i] = true
			s.weights[i] = u.W
		}
	}
	s.outDone.Done()
	s.outDone.Wait()
	for _, i := range s.byIn[s.inStart[w]:s.inStart[w+1]] {
		if !s.took[i] {
			continue
		}
		u := &b[i]
		if u.Del {
			if _, ok := g.removeHalfIdx(g.in, g.inIdx, u.Dst, u.Src, false); !ok {
				panic("graph: in/out adjacency diverged during parallel delete")
			}
		} else {
			g.appendHalf(g.in, g.inIdx, u.Dst, Half{To: u.Src, W: s.weights[i]})
		}
	}
	if w > 0 {
		s.done.Done()
	}
}

// ParallelFor runs fn over [0, n) split into contiguous chunks across the
// given number of workers (GOMAXPROCS when workers <= 0). It is the shared
// fork-join primitive for vertex-parallel phases.
func ParallelFor(n, workers int, fn func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// grow returns a slice of length n, reusing s's backing array when it is
// large enough. Contents are not preserved.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
