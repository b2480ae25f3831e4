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
	// pos and kill carry twin positions across the barrier. For an
	// addition i that took, pos[i] is the twin its in-half gets: the
	// out-half's position, or pending|k when deletion k of the same batch
	// removed that out-half again. For a deletion k that took, kill[k] is
	// the position in in[Dst] of the in-half it removes.
	pos, kill []uint32
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

// pending marks a twin that ApplyBatchParallel's second pass resolves; its
// low 31 bits hold the index of the update that resolves it. An out-half
// added in the batch waits on its addition (pos), an in-half whose out-half
// the batch deleted on that deletion (kill).
const pending = 1 << 31

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
// graph and the result are identical to ApplyBatch's, twins included.
//
// A twin word is written only by the worker that owns its partner's vertex.
// The first pass writes the twins of the in-halves whose out-halves it
// moves or deletes, and leaves a pending mark where the partner's final
// position is not known yet: on an out-half it adds, and on an in-half
// whose out-half it deletes. The second pass, with every out-list final,
// resolves the marks through pos and kill and writes the twins of the
// out-halves whose in-halves it adds or moves.
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
	s.pos = grow(s.pos, len(b))
	s.kill = grow(s.kill, len(b))
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
		p := lookupHalf(g.out[u.Src], g.outIdx[u.Src], u.Dst)
		switch {
		case u.Del && p >= 0:
			h := g.removeOut(u.Src, p)
			if h.twin&pending != 0 { // added by this batch: its in-half is born doomed
				s.pos[h.twin&^pending] = pending | uint32(i)
			} else {
				g.in[u.Dst][h.twin].twin = pending | uint32(i)
				s.kill[i] = h.twin
			}
			s.took[i], s.weights[i] = true, h.W
		case !u.Del && p < 0:
			s.pos[i] = g.appendOut(u.Src, Half{To: u.Dst, twin: pending | uint32(i), W: u.W})
			s.took[i], s.weights[i] = true, u.W
		}
	}
	s.outDone.Done()
	s.outDone.Wait()
	for _, i := range s.byIn[s.inStart[w]:s.inStart[w+1]] {
		if !s.took[i] {
			continue
		}
		u := &b[i]
		if !u.Del {
			g.appendIn(u.Dst, Half{To: u.Src, twin: s.pos[i], W: s.weights[i]})
			continue
		}
		q := s.kill[i]
		if g.in[u.Dst][q].twin != pending|uint32(i) {
			panic("graph: in/out adjacency diverged during parallel delete")
		}
		g.removeIn(u.Dst, q)
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
