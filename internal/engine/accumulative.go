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
// dependency-flow with cross-flow dirtiness carried by messages. Because
// the algorithms are contractions, the asynchronous order converges to the
// same fixpoint (within epsilon) as GraphBolt's synchronous BSP.
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

	dirty    *flags // state must be recomputed from agg
	needPush *flags // contribution broadcast is stale

	forest  *etree.Forest
	inboxes []inbox[[]uint32]
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
		e.needPush.set(uint32(v))
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
		dirty:    newFlags(n),
		needPush: newFlags(n),
	}
	e.init(g, cfg, e, alg.Symmetric())
	for v := 0; v < n; v++ {
		for _, h := range g.Out(graph.VertexID(v)) {
			e.outW[v] += h.W
		}
	}
	e.forest = etree.NewForest(g, cfg.flowDirection())
	e.repartition()
	e.replicate(e.dim)
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
// flow's recomputation starts from a consistent aggregate).
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
				e.agg.AddAt(uint32(u.Dst), d, sign*u.W*unit[d])
			}
		}
		if !e.dirty.swapSet(uint32(u.Dst)) {
			e.seedVertex(uint32(u.Dst))
		}
		// The source's out-weight changed: its broadcast is stale.
		if !e.needPush.swapSet(uint32(u.Src)) {
			e.seedVertex(uint32(u.Src))
		}
	}
	return 0, len(applied)
}

func (e *Accumulative) resetInboxes(n int) { e.inboxes = resizeInboxes(e.inboxes, n) }

// seed is empty: the seed vertices ride in the per-flow seed lists, and
// Config.TwoPhase has no extra effect here — aggregate refinement already
// completes under the manager before recomputation starts, so the faithful
// barrier-per-superstep baseline is internal/graphbolt.
func (e *Accumulative) seed(graph.Batch, int) {}

type accWorker struct {
	e       *Accumulative
	probe   cachesim.Probe
	wl      []uint32
	next    []uint32
	pushers []uint32
	batches [][]uint32 // inbox drain buffer
	base    []float64
	newSt   []float64
	oldSt   []float64
	newU    []float64
	oldU    []float64
	aggBuf  []float64

	pending outbox
	// id is the worker's index in the pool, used to pick which replica
	// slab this worker's hub-bound deltas accumulate into.
	id int
}

func (e *Accumulative) newWorker(w int) unitWorker {
	return &accWorker{
		e:       e,
		id:      w,
		probe:   e.probe.Fork(),
		base:    make([]float64, e.dim),
		newSt:   make([]float64, e.dim),
		oldSt:   make([]float64, e.dim),
		newU:    make([]float64, e.dim),
		oldU:    make([]float64, e.dim),
		aggBuf:  make([]float64, e.dim),
		pending: make(outbox),
	}
}

// roundsPerActivation bounds how many local rounds a unit runs before
// yielding. Converging a flow fully against stale boundary aggregates
// wastes pushes (its neighbours' deltas arrive later and force local
// re-convergence); yielding after a few rounds interleaves flows into an
// approximately global round order while keeping all processing flow-local.
const roundsPerActivation = 2

func (aw *accWorker) processUnit(u *unit) {
	e := aw.e
	if e.rs != nil {
		if k, rep, combine, ok := e.rs.virtual(u.flows[0]); ok {
			aw.processVirtual(u, k, rep, combine)
			return
		}
	}
	aw.probe.SetPhase(cachesim.PhaseRecompute)
	// Worklist carried over from a previous activation, then the seed
	// vertices queued by the manager for this batch.
	aw.wl = append(aw.wl, u.carry...)
	u.carry = u.carry[:0]
	for _, f := range u.flows {
		if len(e.seeds[f]) > 0 {
			aw.wl = append(aw.wl, e.seeds[f]...)
			e.seeds[f] = e.seeds[f][:0]
		}
	}
	for {
		progressed := false
		for _, f := range u.flows {
			aw.batches = e.inboxes[f].drain(aw.batches)
			for _, bt := range aw.batches {
				if len(bt) > 0 {
					progressed = true
					aw.wl = append(aw.wl, bt...)
				}
			}
		}
		// Round-structured local convergence with two sub-phases per round
		// (recompute all states, then broadcast all deltas): a vertex folds
		// every delta of the round into its aggregate before pushing once —
		// a BSP superstep's work discipline, private to this flow, with no
		// global barrier.
		rounds := 0
		for len(aw.wl) > 0 {
			progressed = true
			if rounds >= roundsPerActivation {
				// Yield: park the remaining worklist on the unit, hand the
				// pool a re-activation, and let sibling flows catch up.
				u.carry = append(u.carry[:0], aw.wl...)
				aw.wl = aw.wl[:0]
				aw.pending.flush(&e.driver, e.inboxes, u.level+1)
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
		// Deliver batched cross-flow notifications before (possibly) going
		// idle, so the pool's quiescence detection stays sound.
		aw.pending.flush(&e.driver, e.inboxes, u.level+1)
		if !progressed {
			return
		}
	}
}

// recomputeVertex re-derives v's state from its aggregate (first sub-phase
// of a round) and reports whether v's contribution must be re-broadcast.
func (aw *accWorker) recomputeVertex(v uint32) bool {
	e := aw.e
	if e.rs != nil {
		// Pull-inside: a hub about to recompute folds everything its
		// replicas hold, so its broadcast reflects all mass deposited so
		// far — the pipeline's own drains then find empty slabs (benign).
		if k := e.rs.slotOf(v); k >= 0 {
			if e.rs.pullHub(int(k), func(d int, x float64) { e.agg.AddAt(v, d, x) }) {
				e.dirty.set(v)
			}
		}
	}
	if e.dirty.get(v) {
		e.dirty.clear(v)
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
			e.needPush.set(v)
		}
	}
	if !e.needPush.get(v) {
		return false
	}
	e.needPush.clear(v)
	return true
}

// pushVertex broadcasts v's contribution delta over its out-edges (second
// sub-phase of a round).
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
		if aw.newU[d] != aw.oldU[d] {
			changed = true
			break
		}
	}
	if !changed {
		return
	}
	e.lastUnit.SetVec(v, aw.newU)
	out := e.G.Out(graph.VertexID(v))
	e.relaxations.Add(int64(len(out)))
	if e.trace != nil {
		e.traceWork(e.part.Flow(v), int64(len(out)))
	}
	for i, h := range out {
		if e.profiled {
			aw.probe.Access(e.outIdx.Addr(v, i), false, cachesim.ClassEdge)
			aw.probe.Access(e.agg.Addr(uint32(h.To)), true, cachesim.ClassVertex)
		}
		w := uint32(h.To)
		if e.rs != nil {
			// Cross-unit hub-bound: fold the delta into this worker's
			// replica slab instead of CAS-contending on the hub's shared
			// aggregate; the replica/combine chain applies the residual
			// later. Intra-unit pushes keep the direct path — they coalesce
			// in this unit's next round anyway, and detouring them through
			// the pipeline would fragment the hub's delta batching.
			if k := e.rs.slotOf(w); k >= 0 && !e.inUnit(e.part.Flow(h.To), u) {
				aw.pushReplica(int(k), w, h.W)
				continue
			}
		}
		for d := 0; d < e.dim; d++ {
			delta := h.W * (aw.newU[d] - aw.oldU[d])
			if delta != 0 {
				e.agg.AddAt(w, d, delta)
			}
		}
		if e.dirty.swapSet(w) {
			continue // already queued somewhere
		}
		tf := e.part.Flow(h.To)
		if e.inUnit(tf, u) {
			aw.wl = append(aw.wl, w)
		} else {
			aw.pending[tf] = append(aw.pending[tf], w)
			e.crossMsgs.Add(1)
			if e.trace != nil {
				e.traceMsg(e.part.Flow(v), tf)
			}
		}
	}
}

// pushReplica accumulates one edge's delta vector into replica slab
// (k, worker mod R) and batches a notification to the replica's virtual
// flow. add-then-set: the dirty mark is taken only after the partials
// land, so the replica drain can never miss a delta.
func (aw *accWorker) pushReplica(k int, w uint32, edgeW float64) {
	e := aw.e
	rs := e.rs
	rep := aw.id % rs.r
	any := false
	for d := 0; d < e.dim; d++ {
		delta := edgeW * (aw.newU[d] - aw.oldU[d])
		if delta != 0 {
			rs.addPartial(k, rep, d, delta)
			any = true
		}
	}
	if !any {
		return
	}
	e.replicaMsgs.Add(1)
	if !rs.replicaDirtySwapSet(k, rep) {
		rf := rs.replicaFlow(k, rep)
		aw.pending[rf] = append(aw.pending[rf], w)
	}
}

// processVirtual runs a replica or combine unit (hub replication). The
// inbox payloads are pure notifications — the data rides in the atomic
// slabs — so each activation is one drain pass: clear the dirty mark,
// swap the slots, forward. Late arrivals re-activate through the unit
// state machine.
func (aw *accWorker) processVirtual(u *unit, k, rep int, combine bool) {
	e := aw.e
	rs := e.rs
	if !combine {
		aw.batches = e.inboxes[rs.replicaFlow(k, rep)].drain(aw.batches)
		if rs.drainReplicaInto(k, rep) && !rs.combineDirtySwapSet(k) {
			cf := rs.combineFlow(k)
			e.inboxes[cf].put(nil)
			e.activateFlow(cf, u.level+1)
		}
		return
	}
	h := rs.hubs[k]
	aw.batches = e.inboxes[rs.combineFlow(k)].drain(aw.batches)
	if rs.drainCombine(k, func(d int, x float64) { e.agg.AddAt(h, d, x) }) {
		e.combines.Add(1)
		if !e.dirty.swapSet(h) {
			tf := e.part.Flow(h)
			e.inboxes[tf].put([]uint32{h})
			e.activateFlow(tf, u.level+1)
		}
	}
}
