package dflow

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

func errDuplicate(v uint32) error { return fmt.Errorf("dflow: vertex %d in two flows", v) }
func errFlowOf(v uint32, got, want int32) error {
	return fmt.Errorf("dflow: FlowOf[%d] = %d, member of %d", v, got, want)
}
func errUnassigned(v uint32) error { return fmt.Errorf("dflow: vertex %d unassigned", v) }
func errOverCap(f int32, n, cap int) error {
	return fmt.Errorf("dflow: flow %d holds %d vertices, cap %d", f, n, cap)
}

// FlowGraph is the flow-level dependency digraph: an edge f->g exists while
// at least one graph edge leaves a vertex of flow f into a vertex of flow g.
// It is the runtime index the paper derives from the backward-triangle
// D-trees: given an impacted flow, it answers "which other flows can my
// values reach" without touching graph edges (§V-A).
//
// Storage is a CSR-style refcount index built into reusable buffers when
// the flows are derived. From then on AddEdge/DeleteEdge keep it exact in
// place, for as long as the partition lives (an engine's whole life, unless
// its D-trees are rebuilt): a flow pair the CSR lacks goes into a small
// per-flow overflow map, which only a Rebuild folds back into the CSR
// (keeping the maps allocated). A CSR entry may rest at count zero and be
// re-incremented later; iteration skips non-positive counts.
type FlowGraph struct {
	part *Partition

	outPtr, outDst, outCnt []int32 // rows sorted by dst flow id
	outDeg                 []int32 // distinct downstream flows with positive count

	outOvf []map[int32]int32 // novel pairs since the last rebuild

	// Rebuild state: the graph being indexed, the cursor workers claim rows
	// from, and one retained scratch per worker.
	g        *graph.Streaming
	nextRow  atomic.Int32
	wg       sync.WaitGroup
	builders []*rowBuilder
}

// rowBuilder is one rebuild worker's scratch, retained across rebuilds.
type rowBuilder struct {
	cnt     []int32 // edges into each flow from the current row; zero between rows
	touched []int32 // flows whose counter the current row made nonzero
	rows    []int32 // the rows this worker built, in build order ...
	dst, n  []int32 // ... and their (flow, count) entries, concatenated
	run     func()  // buildRows on this scratch; kept so `go` allocates nothing
}

// NewFlowGraph indexes every cross-flow edge of g under partition part.
func NewFlowGraph(g *graph.Streaming, part *Partition) *FlowGraph {
	fg := &FlowGraph{}
	fg.Rebuild(g, part)
	return fg
}

// sizeFor (re)establishes the per-flow tables for n flows, reusing
// capacity: pointer arrays zeroed, overflow maps emptied. The entry arrays
// are sized by rebuild once the rows are counted.
func (fg *FlowGraph) sizeFor(n int) {
	fg.outPtr = resetI32(fg.outPtr, n+1)
	fg.outDeg = resetI32(fg.outDeg, n)
	fg.outOvf = resetOvf(fg.outOvf, n)
}

// resetI32 returns a zeroed slice of length n reusing capacity.
func resetI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resetOvf returns a length-n overflow slice whose existing maps are kept
// allocated but emptied, so steady-state rebuilds free no map storage.
func resetOvf(s []map[int32]int32, n int) []map[int32]int32 {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]map[int32]int32, n-cap(s))...)
	}
	s = s[:n]
	for _, m := range s {
		clear(m)
	}
	return s
}

// parallelEdges is the graph size from which Rebuild spreads rows over
// GOMAXPROCS workers; below it the fork costs more than the walk.
const parallelEdges = 1 << 19

// Rebuild re-indexes every cross-flow edge of g under part, which must
// cover every vertex (Partition.Validate), reusing the receiver's buffers.
// Engines call this when they re-derive the flows instead of allocating a
// fresh FlowGraph.
func (fg *FlowGraph) Rebuild(g *graph.Streaming, part *Partition) {
	workers := 1
	if g.NumEdges() >= parallelEdges {
		workers = runtime.GOMAXPROCS(0)
	}
	fg.rebuild(g, part, workers)
}

// rebuild is the counting build: one pass over the edges, rows claimed by
// up to workers goroutines, stitched into the CSR by a prefix sum over the
// row lengths.
func (fg *FlowGraph) rebuild(g *graph.Streaming, part *Partition, workers int) {
	fg.part, fg.g = part, g
	nf := part.NumFlows()
	fg.sizeFor(nf)
	workers = max(1, min(workers, nf))
	for len(fg.builders) < workers {
		b := &rowBuilder{}
		b.run = func() { defer fg.wg.Done(); fg.buildRows(b) }
		fg.builders = append(fg.builders, b)
	}
	builders := fg.builders[:workers]
	fg.nextRow.Store(0)
	fg.wg.Add(workers - 1)
	for _, b := range builders[1:] {
		go b.run()
	}
	fg.buildRows(builders[0])
	fg.wg.Wait()
	fg.g = nil

	total := 0
	for f := 0; f < nf; f++ {
		fg.outPtr[f] = int32(total)
		total += int(fg.outDeg[f])
	}
	if total > math.MaxInt32 {
		panic("dflow: flow graph exceeds 2^31 flow pairs")
	}
	fg.outPtr[nf] = int32(total)
	fg.outDst = resetI32(fg.outDst, total)
	fg.outCnt = resetI32(fg.outCnt, total)
	for _, b := range builders {
		off := 0
		for _, f := range b.rows {
			end := off + int(fg.outDeg[f])
			copy(fg.outDst[fg.outPtr[f]:], b.dst[off:end])
			copy(fg.outCnt[fg.outPtr[f]:], b.n[off:end])
			off = end
		}
		// Rows are claimed dynamically: leave every worker room for the whole
		// output, so a rebuild of a like graph allocates nothing whichever
		// rows it claims.
		b.dst, b.n = slices.Grow(b.dst[:0], total), slices.Grow(b.n[:0], total)
	}
}

// buildRows claims rows until none are left. A row is built by walking the
// flow's members once — the partition lists them, so one counter per
// destination flow suffices, with no sort over edges: only the (at most
// NumFlows) destinations the row touched are sorted.
func (fg *FlowGraph) buildRows(b *rowBuilder) {
	flowOf, nf := fg.part.FlowOf, int32(fg.part.NumFlows())
	b.cnt = resetI32(b.cnt, int(nf))
	b.rows, b.touched = slices.Grow(b.rows[:0], int(nf)), slices.Grow(b.touched[:0], int(nf))
	b.dst, b.n = b.dst[:0], b.n[:0]
	cnt := b.cnt
	for f := fg.nextRow.Add(1) - 1; f < nf; f = fg.nextRow.Add(1) - 1 {
		touched := b.touched[:0] // capacity nf: the appends below never move it
		for _, v := range fg.part.Flows[f] {
			for _, h := range fg.g.Out(v) {
				if t := flowOf[h.To]; t != f {
					if cnt[t] == 0 {
						touched = append(touched, t)
					}
					cnt[t]++
				}
			}
		}
		slices.Sort(touched)
		for _, t := range touched {
			b.dst = append(b.dst, t)
			b.n = append(b.n, cnt[t])
			cnt[t] = 0
		}
		b.rows = append(b.rows, f)
		fg.outDeg[f] = int32(len(touched))
	}
}

// csrFind binary-searches row f of a CSR for neighbour x, returning the
// entry position or -1.
func csrFind(ptr, ids []int32, f, x int32) int32 {
	lo, hi := ptr[f], ptr[f+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case ids[mid] < x:
			lo = mid + 1
		case ids[mid] > x:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// AddEdge records graph edge u->v.
func (fg *FlowGraph) AddEdge(u, v graph.VertexID) { fg.bumpEdge(u, v, 1) }

// DeleteEdge removes graph edge u->v from the index.
func (fg *FlowGraph) DeleteEdge(u, v graph.VertexID) { fg.bumpEdge(u, v, -1) }

func (fg *FlowGraph) bumpEdge(u, v graph.VertexID, delta int32) {
	if fu, fv := fg.part.Flow(u), fg.part.Flow(v); fu != fv {
		fg.bumpFlowEdge(fu, fv, delta)
	}
}

// bumpFlowEdge moves the refcount of flow edge fu->fv by delta (+1 or -1);
// the out-degree follows the count across 0 <-> 1.
func (fg *FlowGraph) bumpFlowEdge(fu, fv, delta int32) {
	if fg.bump(fu, fv, delta) == max(delta, 0) {
		fg.outDeg[fu] += delta
	}
}

// bump moves the refcount of neighbour x in row f by delta and returns the
// new count, or -1 when there was nothing to release. Pairs the CSR lacks
// live in the row's overflow map.
func (fg *FlowGraph) bump(f, x, delta int32) int32 {
	if p := csrFind(fg.outPtr, fg.outDst, f, x); p >= 0 {
		if fg.outCnt[p]+delta < 0 {
			return -1
		}
		fg.outCnt[p] += delta
		return fg.outCnt[p]
	}
	ovf := fg.outOvf
	c := ovf[f][x] + delta
	switch {
	case c < 0:
		return -1
	case c == 0:
		delete(ovf[f], x)
	case ovf[f] == nil:
		ovf[f] = map[int32]int32{x: c}
	default:
		ovf[f][x] = c
	}
	return c
}

// NumFlows returns the number of flows.
func (fg *FlowGraph) NumFlows() int { return len(fg.outDeg) }

// OutFlows calls fn for each flow downstream of f.
func (fg *FlowGraph) OutFlows(f int32, fn func(g int32)) {
	for p := fg.outPtr[f]; p < fg.outPtr[f+1]; p++ {
		if fg.outCnt[p] > 0 {
			fn(fg.outDst[p])
		}
	}
	for g, c := range fg.outOvf[f] {
		if c > 0 {
			fn(g)
		}
	}
}

// OutDegree returns the number of downstream flows of f.
func (fg *FlowGraph) OutDegree(f int32) int { return int(fg.outDeg[f]) }

// Count returns the number of graph edges from flow f into flow g.
func (fg *FlowGraph) Count(f, g int32) int32 {
	if p := csrFind(fg.outPtr, fg.outDst, f, g); p >= 0 {
		return fg.outCnt[p]
	}
	return fg.outOvf[f][g]
}
