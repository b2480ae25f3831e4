package engine

import (
	"context"
	"math"

	"repro/internal/algo"
	"repro/internal/cachesim"
	"repro/internal/dflow"
	"repro/internal/etree"
	"repro/internal/graph"
	"repro/internal/layout"
)

// Accumulative is the GraphFly engine for aggregation-based algorithms
// (PageRank, Label Propagation).
//
// It maintains the invariant agg(v) = Σ_{u→v} w_uv · lastUnit(u), where
// lastUnit(u) is the per-weight contribution vector u last broadcast.
// Refinement adjusts aggregates for the batch's changed edges using the
// *current* lastUnit (so the invariant survives structural change);
// recomputation is asynchronous delta-push Gauss–Seidel, executed per
// dependency-flow. Because the algorithms are contractions, the
// asynchronous order converges to the same fixpoint (within epsilon) as
// GraphBolt's synchronous BSP.
//
// Aggregates are owner-folded (DESIGN.md §4.4): a vertex's agg, dirty,
// needPush, state and lastUnit are written only by the runner of its flow's
// unit (and by the manager between runs), so every write is plain. Pushes
// inside the flow fold straight into agg; pushes to other flows are summed
// per target vertex in the sending worker's outbox and delivered, one
// message per target flow, when the unit yields or goes idle. The receiver
// folds them at drain. The unit state machine orders consecutive runners of
// a flow, and the inbox locks order sender and receiver.
//
// Flows come from the structural D-trees of the forward triangle with
// hyper vertices (§IV), maintained incrementally as the graph mutates.
type Accumulative struct {
	driver
	Alg algo.Accumulative

	dim      int
	state    *layout.Store
	agg      *layout.Store
	lastUnit *layout.Store
	outW     []float64

	dirty    []bool // state must be recomputed from agg; v is queued
	needPush []bool // contribution broadcast is stale

	forest  *etree.Forest
	inboxes []inbox[accMsg]
}

// accMsg is one component of a combined cross-flow delta: the receiver
// folds x into component d of agg(v).
type accMsg struct {
	v uint32
	d int32
	x float64
}

// NewAccumulative builds the engine over g and converges the initial graph.
func NewAccumulative(g *graph.Streaming, alg algo.Accumulative, cfg Config) *Accumulative {
	e := newAccumulative(g, alg, cfg)
	// Initial convergence through the engine itself: state = base,
	// aggregates and broadcasts zero, every vertex must push.
	buf := make([]float64, e.dim)
	e.resetSeeds(e.part.NumFlows())
	for v := 0; v < g.NumVertices(); v++ {
		e.Alg.Base(graph.VertexID(v), buf)
		e.state.SetVec(uint32(v), buf)
		e.needPush[v] = true
		e.seedVertex(uint32(v))
	}
	e.converge(context.Background(), nil, new(BatchStats))
	return e
}

// newAccumulative builds the engine with all-zero state over g's structural
// D-trees; the caller installs the state.
func newAccumulative(g *graph.Streaming, alg algo.Accumulative, cfg Config) *Accumulative {
	n := g.NumVertices()
	e := &Accumulative{
		Alg:      alg,
		dim:      alg.Dim(),
		outW:     make([]float64, n),
		dirty:    make([]bool, n),
		needPush: make([]bool, n),
	}
	e.init(g, cfg, e, alg.Symmetric())
	for v := 0; v < n; v++ {
		for _, h := range g.Out(graph.VertexID(v)) {
			e.outW[v] += h.W
		}
	}
	e.forest = etree.NewForest(g, cfg.flowDirection())
	e.repartition()
	return e
}

// maintain keeps the out-weights and the structural D-trees current
// (Fig 15b measures this span).
func (e *Accumulative) maintain(applied graph.Batch) bool {
	for _, u := range applied {
		if u.Del {
			e.outW[u.Src] = max(e.outW[u.Src]-u.W, 0)
		} else {
			e.outW[u.Src] += u.W
		}
	}
	return maintainForest(e.forest, e.G, applied)
}

func (e *Accumulative) rebuild() *dflow.Partition {
	part := dflow.NewPartition(e.forest, e.cfg.FlowCap)
	e.state = e.migrateStore(part, e.dim, e.state)
	e.agg = e.migrateStore(part, e.dim, e.agg)
	e.lastUnit = e.migrateStore(part, e.dim, e.lastUnit)
	return part
}

// State copies v's state vector into a fresh slice.
func (e *Accumulative) State(v graph.VertexID) []float64 {
	return e.state.GetVec(uint32(v), make([]float64, e.dim))
}

// Values returns all states row-major (vertex v at [v*Dim:(v+1)*Dim]),
// matching algo.SolveAccumulative's shape.
func (e *Accumulative) Values() []float64 {
	n := e.G.NumVertices()
	out := make([]float64, n*e.dim)
	for v := 0; v < n; v++ {
		e.state.GetVec(uint32(v), out[v*e.dim:(v+1)*e.dim])
	}
	return out
}

// Forest exposes the structural D-tree forest.
func (e *Accumulative) Forest() *etree.Forest { return e.forest }

// trim is the refinement: adjust the aggregates of changed edges with the
// current broadcasts so the invariant holds on the new topology (the
// paper's refine phase; GraphFly needs no barrier after it because each
// flow's recomputation starts from a consistent aggregate). It runs on the
// manager before any unit, so its writes are plain.
func (e *Accumulative) trim(applied graph.Batch) (roots, trimmed int) {
	e.probe.SetPhase(cachesim.PhaseRefine)
	unit := make([]float64, e.dim)
	for _, u := range applied {
		e.lastUnit.GetVec(uint32(u.Src), unit)
		sign := 1.0
		if u.Del {
			sign = -1
		}
		if e.profiled {
			e.probe.Access(e.agg.Addr(uint32(u.Dst)), true, cachesim.ClassVertex)
			e.probe.Access(e.lastUnit.Addr(uint32(u.Src)), false, cachesim.ClassVertex)
		}
		for d := 0; d < e.dim; d++ {
			if unit[d] != 0 {
				e.agg.Add(uint32(u.Dst), d, sign*u.W*unit[d])
			}
		}
		if !e.dirty[u.Dst] {
			e.dirty[u.Dst] = true
			e.seedVertex(uint32(u.Dst))
		}
		// The source's out-weight changed: its broadcast is stale.
		if !e.needPush[u.Src] {
			e.needPush[u.Src] = true
			e.seedVertex(uint32(u.Src))
		}
	}
	return 0, len(applied)
}

func (e *Accumulative) resetInboxes(n int) { e.inboxes = resizeInboxes(e.inboxes, n) }

// release drops the step's message buffers once its units quiesce: the
// inboxes' and the workers' outboxes, drain buffers and worklists. They
// grow back within the next step, so a flush reuses its buffers but the
// heap holds none of them between batches. The combining index stays.
func (e *Accumulative) release() {
	for i := range e.inboxes {
		e.inboxes[i].release()
	}
	for _, w := range e.workers {
		aw := w.(*accWorker)
		aw.out.release()
		aw.msgs, aw.wl, aw.next, aw.pushers = nil, nil, nil, nil
	}
}

// seed is empty: the seed vertices ride in the per-flow seed lists, and
// Config.TwoPhase has no extra effect here — aggregate refinement already
// completes under the manager before recomputation starts, so the faithful
// barrier-per-superstep baseline is internal/graphbolt.
func (e *Accumulative) seed(graph.Batch) {}

type accWorker struct {
	e       *Accumulative
	wl      []uint32
	next    []uint32
	pushers []uint32
	msgs    []accMsg // inbox drain buffer
	base    []float64
	newSt   []float64
	oldSt   []float64
	newU    []float64
	oldU    []float64
	diff    []float64 // newU - oldU of the vertex being pushed
	aggBuf  []float64

	// out combines this worker's cross-flow deltas per target vertex until
	// the next flush; at[v] is the index of v's first component in out's
	// buffer for v's flow, or -1 when v has no pending delta.
	out outbox[accMsg]
	at  []int32
	work
}

// newWorker builds a worker. Its seven scratch vectors share one
// allocation with a cache line of padding at each end: the driver builds
// every worker on one goroutine, and as separate small allocations two
// workers' vectors would sit side by side, on shared cache lines that
// both write on every push.
func (e *Accumulative) newWorker(int) unitWorker {
	const pad = 8 // float64s in a 64-byte cache line
	k := e.dim
	s := make([]float64, pad+7*k+pad)[pad:]
	vec := func(i int) []float64 { return s[i*k : (i+1)*k : (i+1)*k] }
	aw := &accWorker{
		e:      e,
		base:   vec(0),
		newSt:  vec(1),
		oldSt:  vec(2),
		newU:   vec(3),
		oldU:   vec(4),
		diff:   vec(5),
		aggBuf: vec(6),
		at:     make([]int32, e.G.NumVertices()),
	}
	for i := range aw.at {
		aw.at[i] = -1
	}
	return aw
}

// roundsPerActivation bounds how many local rounds a unit runs before
// yielding. Converging a flow fully against stale boundary aggregates
// wastes pushes (its neighbours' deltas arrive later and force local
// re-convergence); yielding after a few rounds interleaves flows into an
// approximately global round order while keeping all processing flow-local.
const roundsPerActivation = 2

func (aw *accWorker) processUnit(u *unit) {
	e := aw.e
	aw.probe.SetPhase(cachesim.PhaseRecompute)
	// Worklist carried over from a previous activation, then the seed
	// vertices queued by the manager for this batch.
	aw.wl = append(aw.wl, u.carry...)
	u.carry = u.carry[:0]
	if seeds := e.seeds[u.flow]; len(seeds) > 0 {
		aw.wl = append(aw.wl, seeds...)
		e.seeds[u.flow] = seeds[:0]
	}
	for {
		aw.msgs = e.inboxes[u.flow].drain(aw.msgs)
		progressed := len(aw.msgs) > 0
		aw.fold(aw.msgs)
		// Round-structured local convergence with two sub-phases per round
		// (recompute all states, then broadcast all deltas): a vertex folds
		// every delta of the round into its aggregate before pushing once —
		// a BSP superstep's work discipline, private to this flow, with no
		// global barrier.
		rounds := 0
		for len(aw.wl) > 0 {
			progressed = true
			if rounds >= roundsPerActivation {
				// Yield: park the remaining worklist on the unit, deliver the
				// combined deltas, hand the pool a re-activation, and let
				// sibling flows catch up.
				u.carry = append(u.carry[:0], aw.wl...)
				aw.wl = aw.wl[:0]
				aw.flush()
				e.pl.activate(u)
				return
			}
			rounds++
			round := aw.wl
			aw.wl = aw.next[:0]
			aw.pushers = aw.pushers[:0]
			for _, v := range round {
				if aw.recomputeVertex(v) {
					aw.pushers = append(aw.pushers, v)
				}
			}
			for _, v := range aw.pushers {
				aw.pushVertex(v, u)
			}
			aw.next = round[:0]
		}
		// Deliver the combined cross-flow deltas before (possibly) going
		// idle, so the pool's quiescence detection stays sound.
		aw.flush()
		if !progressed {
			return
		}
	}
}

// fold applies drained cross-flow deltas to this flow's aggregates and
// queues each target that was not queued already — one cross-flow message
// per newly queued vertex.
func (aw *accWorker) fold(msgs []accMsg) {
	e := aw.e
	for _, m := range msgs {
		e.agg.Add(m.v, int(m.d), m.x)
		if !e.dirty[m.v] {
			e.dirty[m.v] = true
			aw.wl = append(aw.wl, m.v)
			aw.crossMsgs++
		}
	}
}

// flush delivers the combined deltas, one message per target flow, and
// clears their combining index.
func (aw *accWorker) flush() {
	for _, f := range aw.out.touched {
		for _, m := range aw.out.bufs[f] {
			aw.at[m.v] = -1
		}
	}
	aw.out.flush(&aw.e.driver, aw.e.inboxes)
}

// recomputeVertex re-derives v's state from its aggregate (first sub-phase
// of a round) and reports whether v's contribution must be re-broadcast.
func (aw *accWorker) recomputeVertex(v uint32) bool {
	e := aw.e
	if e.dirty[v] {
		e.dirty[v] = false
		if e.profiled {
			aw.probe.Access(e.agg.Addr(v), false, cachesim.ClassVertex)
			aw.probe.Access(e.state.Addr(v), true, cachesim.ClassVertex)
		}
		e.Alg.Base(graph.VertexID(v), aw.base)
		e.agg.GetVec(v, aw.aggBuf)
		e.state.GetVec(v, aw.oldSt)
		e.Alg.Update(aw.base, aw.aggBuf, aw.newSt)
		maxDelta := 0.0
		for d := 0; d < e.dim; d++ {
			if dd := math.Abs(aw.newSt[d] - aw.oldSt[d]); dd > maxDelta {
				maxDelta = dd
			}
		}
		e.state.SetVec(v, aw.newSt)
		if maxDelta > e.Alg.Epsilon() {
			e.needPush[v] = true
		}
	}
	if !e.needPush[v] {
		return false
	}
	e.needPush[v] = false
	return true
}

// pushVertex broadcasts v's contribution delta over its out-edges (second
// sub-phase of a round): inside the flow straight into the aggregate,
// across flows into the combining outbox.
func (aw *accWorker) pushVertex(v uint32, u *unit) {
	e := aw.e
	if e.profiled {
		aw.probe.Access(e.state.Addr(v), false, cachesim.ClassVertex)
		aw.probe.Access(e.lastUnit.Addr(v), true, cachesim.ClassVertex)
	}
	e.state.GetVec(v, aw.newSt)
	e.Alg.Unit(aw.newSt, e.outW[v], aw.newU)
	e.lastUnit.GetVec(v, aw.oldU)
	changed := false
	for d := 0; d < e.dim; d++ {
		aw.diff[d] = aw.newU[d] - aw.oldU[d]
		changed = changed || aw.newU[d] != aw.oldU[d]
	}
	if !changed {
		return
	}
	e.lastUnit.SetVec(v, aw.newU)
	out := e.G.Out(graph.VertexID(v))
	aw.relaxations += int64(len(out))
	for i, h := range out {
		if e.profiled {
			// The model keeps one aggregate write per edge, wherever the
			// delta is folded.
			aw.probe.Access(e.outIdx.Addr(v, i), false, cachesim.ClassEdge)
			aw.probe.Access(e.agg.Addr(uint32(h.To)), true, cachesim.ClassVertex)
		}
		w := uint32(h.To)
		tf := e.part.Flow(h.To)
		if tf == u.flow {
			for d, x := range aw.diff {
				if delta := h.W * x; delta != 0 {
					e.agg.Add(w, d, delta)
				}
			}
			if !e.dirty[w] {
				e.dirty[w] = true
				aw.wl = append(aw.wl, w)
			}
			continue
		}
		aw.combine(tf, w, h.W)
	}
}

// combine adds one edge's delta for w (in flow tf) to the outbox entry of
// w, opening the entry — one message to tf — on w's first delta since the
// last flush.
func (aw *accWorker) combine(tf int32, w uint32, edgeW float64) {
	at := aw.at[w]
	if at < 0 {
		b := aw.out.to(tf)
		at = int32(len(*b))
		for d := range aw.diff {
			*b = append(*b, accMsg{v: w, d: int32(d)})
		}
		aw.at[w] = at
	}
	entries := aw.out.bufs[tf][at:]
	for d, x := range aw.diff {
		entries[d].x += edgeW * x
	}
}
