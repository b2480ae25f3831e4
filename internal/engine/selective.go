package engine

import (
	"fmt"

	"repro/internal/algo"
	"repro/internal/cachesim"
	"repro/internal/dflow"
	"repro/internal/etree"
	"repro/internal/graph"
	"repro/internal/layout"
)

// Selective is the GraphFly engine for monotonic (selection-based)
// algorithms: SSSP, SSWP, BFS, CC.
//
// Correctness protocol (DESIGN.md §4.3): the key-edge forest makes the trim
// set of a batch computable before refinement; trimmed vertices carry an
// atomic "invalid" bit; refinement pulls skip invalid neighbours; every
// reset or improved vertex pushes through its out-edges, so any candidate a
// skipped pull would have found arrives later as a push. The post-trim
// state is an achievable over-approximation, hence chaotic asynchronous
// relaxation converges to the exact fixpoint — the same values a
// from-scratch computation yields.
type Selective struct {
	driver
	publisher
	Alg algo.Selective

	vals    *layout.Store
	parent  []int32
	trimmed *flags
	kf      *etree.KeyForest

	inboxes []inbox[selMsg]
}

type selMsg struct {
	v      uint32
	val    float64
	parent int32
	force  bool // enqueue the vertex even if the value does not improve
}

// NewSelective builds the engine over g (which must already contain the
// initial graph) and runs the initial static computation, recording key
// edges, exactly as the paper's workflow does ("Initially, we generate the
// D-trees of a graph offline", §VI).
func NewSelective(g *graph.Streaming, alg algo.Selective, cfg Config) *Selective {
	vals, parent := algo.SolveSelective(g, alg)
	return newSelective(g, alg, cfg, vals, parent)
}

// NewSelectiveFromState rebuilds an engine from a snapshot (vals, parent)
// taken by SnapshotState over an identical graph, skipping the from-scratch
// static solve: the restored values are GraphFly's floored refinement state,
// so subsequent batches reconverge incrementally exactly as if the engine
// had never stopped. This is the recovery entry point internal/wal uses.
func NewSelectiveFromState(g *graph.Streaming, alg algo.Selective, cfg Config, vals []float64, parent []int32) (*Selective, error) {
	n := g.NumVertices()
	if len(vals) != n || len(parent) != n {
		return nil, fmt.Errorf("engine: state for %d/%d vertices, graph has %d", len(vals), len(parent), n)
	}
	return newSelective(g, alg, cfg, vals, append([]int32(nil), parent...)), nil
}

func newSelective(g *graph.Streaming, alg algo.Selective, cfg Config, vals []float64, parent []int32) *Selective {
	e := &Selective{
		Alg:     alg,
		parent:  parent,
		trimmed: newFlags(g.NumVertices()),
		kf:      etree.NewKeyForest(g.NumVertices()),
	}
	e.kf.BulkLoad(parent)
	e.initPublisher(g.NumVertices())
	e.init(g, cfg, e, alg.Symmetric())
	e.inEdges = true
	e.repartition()
	for v, x := range vals {
		e.vals.Set(uint32(v), x)
	}
	return e
}

// SnapshotState copies the converged per-vertex values and key-edge parents
// — everything NewSelectiveFromState needs besides the graph itself — by
// flattening a publish. Call it only between batches (the engine is not
// processing).
func (e *Selective) SnapshotState() (vals []float64, parent []int32) {
	f := e.StateSnapshot(0)
	return f.Vals, f.Parent
}

// Publish returns the converged state under seq as an immutable chunked
// root: the chunks the batches since the last publish wrote are rebuilt,
// every other chunk is shared with the previous root. Call it only between
// batches; the root stays valid, and unchanged, while later batches run.
func (e *Selective) Publish(seq uint64) *State {
	return e.publish(seq, func(c *chunk, lo, hi int) {
		for v := lo; v < hi; v++ {
			c.vals[v-lo] = e.vals.Get(uint32(v))
		}
		copy(c.parent[:], e.parent[lo:hi])
	})
}

// Value returns v's current converged value.
func (e *Selective) Value(v graph.VertexID) float64 { return e.vals.Get(uint32(v)) }

// Values copies all values into a fresh slice.
func (e *Selective) Values() []float64 {
	out := make([]float64, e.G.NumVertices())
	for v := range out {
		out[v] = e.vals.Get(uint32(v))
	}
	return out
}

// Parent returns v's key-edge source (-1 if none).
func (e *Selective) Parent(v graph.VertexID) int32 { return e.parent[v] }

// maintain re-links the vertices the previous batch re-parented into the
// key-edge D-tree (§IV-B): the forest already holds every other key edge.
// The forest follows the values, so it never forces the flows to be
// re-derived.
func (e *Selective) maintain(graph.Batch) bool {
	e.kf.Sync(e.parent)
	return false
}

// rebuild derives the flows from the current key-edge parents and migrates
// the values into the flow-blocked store.
func (e *Selective) rebuild() *dflow.Partition {
	part := dflow.NewPartitionFromParents(e.parent, e.cfg.FlowCap)
	e.vals = e.migrateStore(part, 1, e.vals)
	return part
}

// trim identifies the trim set at tree-node cost (no graph-edge traversal):
// a deletion that killed a key edge invalidates the subtree hanging off it.
func (e *Selective) trim(applied graph.Batch) (roots, trimmed int) {
	for _, u := range applied {
		if !u.Del || e.parent[u.Dst] != int32(u.Src) {
			continue
		}
		if e.cfg.FaultSkipTrim {
			continue // injected bug for oracle mutation tests
		}
		roots++
		e.kf.Subtree(uint32(u.Dst), func(x uint32) bool {
			if e.trimmed.swapSet(x) {
				return false // already trimmed by a nested root
			}
			// No publish mark: the vertex's unit refines it before the
			// batch ends, and refineVertex's writeVal marks its chunk.
			e.parent[x] = -1
			e.seedVertex(x)
			trimmed++
			return true
		})
	}
	return roots, trimmed
}

func (e *Selective) resetInboxes(n int) { e.inboxes = resizeInboxes(e.inboxes, n) }

// release applies the inbox's capacity decay to the workers' outboxes,
// drain buffers and worklists once the step's units quiesce: a buffer at or
// under inboxTrimCap is kept for the next step, a larger one dropped. The
// inbox buffers decay on drain and reset.
func (e *Selective) release() {
	for _, w := range e.workers {
		sw := w.(*selWorker)
		sw.out.release()
		sw.wl, sw.buf = decayed(sw.wl), decayed(sw.buf)
	}
}

// seed posts addition relaxations as messages (no refinement needed:
// additions can only improve monotonic values), through the outbox of
// worker 0, which is idle until the units run. Under the TwoPhase ablation
// it then refines every impacted flow behind a global barrier, so the units
// only recompute — the KickStarter/GraphBolt shape on GraphFly's data
// structures.
func (e *Selective) seed(applied graph.Batch) {
	sw := e.workers[0].(*selWorker)
	for _, u := range applied {
		if u.Del {
			continue
		}
		if e.trimmed.get(uint32(u.Src)) {
			continue // the source will push once its flow refines it
		}
		cand := e.Alg.Propagate(e.vals.Get(uint32(u.Src)), u.W)
		if e.trimmed.get(uint32(u.Dst)) || e.Alg.Better(cand, e.vals.Get(uint32(u.Dst))) {
			sw.post(selMsg{v: uint32(u.Dst), val: cand, parent: int32(u.Src)})
		}
	}
	sw.out.flush(&e.driver, e.inboxes)
	if !e.cfg.TwoPhase {
		return
	}
	// Worker w refines units w, w+nw, ... with a probe of its own, so the
	// recompute phase's probes start cold as without the barrier.
	units, nw := e.units, len(e.workers)
	graph.ParallelFor(nw, nw, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			sw := e.workers[w].(*selWorker)
			sw.probe = e.probe.Fork()
			for i := w; i < len(units); i += nw {
				sw.refine(units[i])
				// Hand the reset vertices to the recompute phase as forced seeds.
				for _, v := range sw.wl {
					sw.post(selMsg{v: v, val: e.vals.Get(v), parent: e.parent[v], force: true})
				}
				sw.wl = sw.wl[:0]
			}
			sw.out.flush(&e.driver, e.inboxes)
		}
	})
}

// selWorker is one scheduler worker's state: a local worklist, the inbox
// drain buffer, and the outbox that batches its cross-flow candidates.
type selWorker struct {
	e   *Selective
	wl  []uint32
	buf []selMsg
	out outbox[selMsg]
	work
}

func (e *Selective) newWorker(int) unitWorker { return &selWorker{e: e} }

// post buffers a candidate for m.v in its flow's outbox.
func (sw *selWorker) post(m selMsg) {
	b := sw.out.to(sw.e.part.Flow(m.v))
	*b = append(*b, m)
}

func (sw *selWorker) readVal(v uint32) float64 {
	if sw.e.profiled {
		sw.probe.Access(sw.e.vals.Addr(v), false, cachesim.ClassVertex)
	}
	return sw.e.vals.Get(v)
}

// writeVal is the kernel's one value-write site; it marks v's chunk for
// the next publish. Every parent write rides with a value write.
func (sw *selWorker) writeVal(v uint32, x float64) {
	if sw.e.profiled {
		sw.probe.Access(sw.e.vals.Addr(v), true, cachesim.ClassVertex)
	}
	sw.e.vals.Set(v, x)
	sw.e.mark(v)
}

// processUnit runs one scheduling unit: refine its trimmed vertices (pull
// style, within the flow) unless the TwoPhase barrier already did, then
// recompute to local quiescence, draining inbox messages and pushing
// cross-flow candidates (push style between flows — §V-A's
// pull-inside/push-outside rule). The candidates are buffered per target
// flow and flushed after each round.
func (sw *selWorker) processUnit(u *unit) {
	e := sw.e
	if !e.cfg.TwoPhase {
		sw.refine(u)
	}
	sw.probe.SetPhase(cachesim.PhaseRecompute)
	for {
		sw.buf = e.inboxes[u.flow].drain(sw.buf)
		progressed := len(sw.buf) > 0
		for _, m := range sw.buf {
			sw.apply(m)
		}
		// FIFO (SPFA-style) relaxation: breadth-first orders touch each
		// vertex far fewer times than depth-first on weighted graphs.
		for head := 0; head < len(sw.wl); head++ {
			progressed = true
			sw.relax(sw.wl[head], u)
		}
		sw.wl = sw.wl[:0]
		// Deliver the buffered candidates before (possibly) going idle, so
		// the scheduler's quiescence detection stays sound.
		sw.out.flush(&e.driver, e.inboxes)
		if !progressed {
			return
		}
	}
}

// refine resets the unit's still-trimmed vertices, queueing them on the
// worklist.
func (sw *selWorker) refine(u *unit) {
	e := sw.e
	sw.probe.SetPhase(cachesim.PhaseRefine)
	for _, v := range e.seeds[u.flow] {
		if !e.trimmed.get(v) {
			continue // reset on a previous activation
		}
		sw.refineVertex(v)
	}
}

// refineVertex resets a trimmed vertex to the best value achievable from
// its untrimmed in-neighbours (or its base value) and queues it for
// recomputation: refineEdge of Fig 10 at vertex granularity.
func (sw *selWorker) refineVertex(v uint32) {
	e := sw.e
	best := e.Alg.Base(graph.VertexID(v))
	bestParent := int32(-1)
	in := e.G.In(graph.VertexID(v))
	for i, h := range in {
		if e.profiled {
			sw.probe.Access(e.inIdx.Addr(v, i), false, cachesim.ClassEdge)
		}
		if e.trimmed.get(uint32(h.To)) {
			continue // invalid neighbour: its push will arrive later
		}
		cand := e.Alg.Propagate(sw.readVal(uint32(h.To)), h.W)
		if e.Alg.Better(cand, best) {
			best = cand
			bestParent = int32(h.To)
		}
	}
	sw.pulls += int64(len(in))
	sw.writeVal(v, best)
	e.parent[v] = bestParent
	e.trimmed.clear(v)
	sw.wl = append(sw.wl, v)
}

// apply merges an incoming candidate into v (owner-side message handling).
func (sw *selWorker) apply(m selMsg) {
	e := sw.e
	v := m.v
	if e.trimmed.get(v) {
		// Still invalid when its message arrives (e.g. trimmed by a nested
		// root after the send): refine now so pull and push merge.
		sw.refineVertex(v)
	}
	if e.Alg.Better(m.val, sw.readVal(v)) {
		sw.writeVal(v, m.val)
		e.parent[v] = m.parent
		sw.wl = append(sw.wl, v)
	} else if m.force {
		sw.wl = append(sw.wl, v)
	}
}

// relax pushes v's value over its out-edges: computeEdge of Fig 10.
func (sw *selWorker) relax(v uint32, u *unit) {
	e := sw.e
	uVal := sw.readVal(v)
	out := e.G.Out(graph.VertexID(v))
	sw.relaxations += int64(len(out))
	for i, h := range out {
		if e.profiled {
			sw.probe.Access(e.outIdx.Addr(v, i), false, cachesim.ClassEdge)
		}
		w := uint32(h.To)
		cand := e.Alg.Propagate(uVal, h.W)
		if e.part.Flow(h.To) == u.flow {
			if e.trimmed.get(w) {
				sw.refineVertex(w)
			}
			if e.Alg.Better(cand, sw.readVal(w)) {
				sw.writeVal(w, cand)
				e.parent[w] = int32(v)
				sw.wl = append(sw.wl, w)
			}
			continue
		}
		// Cross-flow: send only when it could matter.
		if e.trimmed.get(w) || e.Alg.Better(cand, sw.readVal(w)) {
			sw.crossMsgs++
			sw.post(selMsg{v: w, val: cand, parent: int32(v)})
		}
	}
}
