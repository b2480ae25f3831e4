package engine

import (
	"fmt"

	"repro/internal/algo"
	"repro/internal/dflow"
	"repro/internal/etree"
	"repro/internal/graph"
	"repro/internal/layout"
)

// Local is the GraphFly engine for neighborhood-local, non-monotonic
// algorithms (triangle counting, k-core maintenance). It shares the
// dependency-flow runtime with the other two engines — structural D-trees
// partition the graph into flows, each impacted flow is one scheduling
// unit, and cross-flow influence travels as messages — but its
// convergence discipline is seeded recomputation: the algorithm plans each
// batch into sequentially converged steps (algo.Local.Plan), marks the
// vertices a step invalidates (Seed), and the workers re-derive values
// (Recompute) until quiescence, re-notifying neighbors when a value changes
// and the algorithm reads neighbor values.
//
// Exclusivity protocol: every vertex is recomputed only by the worker
// currently running its flow's unit (seeds and inbox messages are routed by
// flow, and a unit runs on one worker at a time), so there are no
// concurrent writes to one value. The queued-bit handshake — clear before
// Recompute, swapSet when notifying — guarantees a vertex whose neighbor
// changes mid-recompute is re-queued, which with a unique seeded fixpoint
// makes the result independent of worker count and scheduler.
type Local struct {
	driver
	publisher
	Alg algo.Local

	vals   *layout.Store
	queued *flags // vertex sits on some worklist / inbox
	notify bool   // Alg.UsesNeighborVals()

	forest  *etree.Forest
	inboxes []inbox[uint32]
	valOf   func(graph.VertexID) float64
}

// NewLocal builds the engine over g (already symmetric for symmetric
// algorithms) and installs the from-scratch solution as the initial state.
func NewLocal(g *graph.Streaming, alg algo.Local, cfg Config) *Local {
	return newLocal(g, alg, cfg, alg.Solve(g))
}

// NewLocalFromState rebuilds an engine from a snapshot of Values() taken
// over an identical graph, skipping the from-scratch solve — the recovery
// entry point internal/wal uses.
func NewLocalFromState(g *graph.Streaming, alg algo.Local, cfg Config, vals []float64) (*Local, error) {
	if len(vals) != g.NumVertices() {
		return nil, fmt.Errorf("engine: state for %d vertices, graph has %d", len(vals), g.NumVertices())
	}
	return newLocal(g, alg, cfg, vals), nil
}

func newLocal(g *graph.Streaming, alg algo.Local, cfg Config, vals []float64) *Local {
	e := &Local{
		Alg:    alg,
		notify: alg.UsesNeighborVals(),
		queued: newFlags(g.NumVertices()),
	}
	cfg.Probe = nil // the local kernels make no instrumented accesses
	e.initPublisher(g.NumVertices())
	e.init(g, cfg, e, alg.Symmetric())
	e.plan = alg.Plan
	e.forest = etree.NewForest(g, cfg.flowDirection())
	e.repartition()
	for v, x := range vals {
		e.set(uint32(v), x)
	}
	e.valOf = func(v graph.VertexID) float64 { return e.vals.Get(v) }
	return e
}

func (e *Local) maintain(applied graph.Batch) bool {
	return maintainForest(e.forest, e.G, applied)
}

func (e *Local) rebuild() *dflow.Partition {
	part := dflow.NewPartition(e.forest, e.cfg.FlowCap)
	e.vals = e.migrateStore(part, 1, e.vals)
	return part
}

// Value returns v's current converged value.
func (e *Local) Value(v graph.VertexID) float64 { return e.vals.Get(v) }

// Values copies all values into a fresh slice.
func (e *Local) Values() []float64 {
	out := make([]float64, e.G.NumVertices())
	for v := range out {
		out[v] = e.vals.Get(uint32(v))
	}
	return out
}

// set writes v's value and marks its chunk for the next publish: the one
// value-write path.
func (e *Local) set(v uint32, x float64) {
	e.vals.Set(v, x)
	e.mark(v)
}

// Publish returns the converged state under seq as an immutable chunked
// root, rebuilding only the chunks written since the last publish (see
// Selective.Publish). Local algorithms have no key-edge parents; the
// parent column is -1 throughout, matching the wire schema. Call it only
// between batches.
func (e *Local) Publish(seq uint64) *State {
	return e.publish(seq, func(c *chunk, lo, hi int) {
		for v := lo; v < hi; v++ {
			c.vals[v-lo] = e.vals.Get(uint32(v))
			c.parent[v-lo] = -1
		}
	})
}

// trim is seeding (the trim-equivalent phase for local algorithms): the
// algorithm decides which values this step invalidates.
func (e *Local) trim(applied graph.Batch) (roots, seeded int) {
	emit := func(v graph.VertexID) {
		if e.queued.swapSet(v) {
			return // already seeded this step
		}
		e.seedVertex(v)
		seeded++
	}
	e.Alg.Seed(e.G, applied, e.valOf, e.set, emit)
	return 0, seeded
}

func (e *Local) resetInboxes(n int) { e.inboxes = resizeInboxes(e.inboxes, n) }

// release applies the inbox's capacity decay to the workers' outboxes,
// drain buffers and worklists once the step's units quiesce (see
// Selective.release).
func (e *Local) release() {
	for _, w := range e.workers {
		lw := w.(*localWorker)
		lw.out.release()
		lw.wl, lw.drained = decayed(lw.wl), decayed(lw.drained)
	}
}

// seed is empty: the seeded vertices ride in the per-flow seed lists.
func (e *Local) seed(graph.Batch) {}

func (e *Local) newWorker(int) unitWorker { return &localWorker{e: e} }

type localWorker struct {
	e       *Local
	wl      []uint32
	drained []uint32 // inbox drain buffer
	out     outbox[uint32]
	work
}

func (lw *localWorker) processUnit(u *unit) {
	e := lw.e
	if seeds := e.seeds[u.flow]; len(seeds) > 0 {
		lw.wl = append(lw.wl, seeds...)
		e.seeds[u.flow] = seeds[:0]
	}
	for {
		lw.drained = e.inboxes[u.flow].drain(lw.drained)
		progressed := len(lw.drained) > 0
		lw.wl = append(lw.wl, lw.drained...)
		for head := 0; head < len(lw.wl); head++ {
			progressed = true
			lw.recompute(lw.wl[head], u)
		}
		lw.wl = lw.wl[:0]
		// Deliver batched cross-flow notifications before (possibly) going
		// idle, so the scheduler's quiescence detection stays sound.
		lw.out.flush(&e.driver, e.inboxes)
		if !progressed {
			return
		}
	}
}

// recompute re-derives one vertex and, on change, re-queues its neighbors
// when the algorithm reads neighbor values. Clearing the queued bit before
// reading guarantees a concurrent neighbor change re-queues v.
func (lw *localWorker) recompute(v uint32, u *unit) {
	e := lw.e
	e.queued.clear(v)
	old := e.vals.Get(v)
	nv := e.Alg.Recompute(e.G, v, old, e.valOf)
	lw.relaxations++
	if nv == old {
		return
	}
	e.set(v, nv)
	if !e.notify {
		return
	}
	for _, h := range e.G.Out(graph.VertexID(v)) {
		w := h.To
		if w == v || e.queued.swapSet(w) {
			continue
		}
		tf := e.part.Flow(w)
		if tf == u.flow {
			lw.wl = append(lw.wl, w)
		} else {
			b := lw.out.to(tf)
			*b = append(*b, w)
			lw.crossMsgs++
		}
	}
}
