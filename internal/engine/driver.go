package engine

import (
	"context"
	"sync"
	"time"

	"repro/internal/cachesim"
	"repro/internal/dense"
	"repro/internal/dflow"
	"repro/internal/etree"
	"repro/internal/graph"
	"repro/internal/layout"
)

// kernel is what an engine family plugs into the batch driver: its D-tree
// upkeep, its value stores, how a step's updates invalidate state, and the
// per-unit convergence body. The driver calls it per batch step and per
// scheduling unit only; per-vertex and per-edge work stays inside the
// kernels on concrete types (DESIGN.md §4.15).
type kernel interface {
	// maintain folds one step's applied updates into the kernel's D-trees
	// and reports whether they were rebuilt wholesale, in which case the
	// flows must be re-derived from them.
	maintain(applied graph.Batch) (rebuilt bool)
	// rebuild derives a fresh partition from the D-trees and migrates the
	// kernel's value stores into its layout (driver.migrateStore).
	rebuild() *dflow.Partition
	// trim marks what the applied updates invalidate: every vertex that
	// must be re-derived is handed to driver.seedVertex, which also marks
	// its flow impacted. It reports the deletions that killed a key edge
	// and the vertices invalidated (BatchStats.TrimRoots / Trimmed).
	trim(applied graph.Batch) (roots, trimmed int)
	// resetInboxes sizes and clears the kernel's n per-flow mailboxes.
	resetInboxes(n int)
	// release runs once a step's units have quiesced: the kernel drops the
	// message buffers it needs only while units run.
	release()
	// seed posts a step's initial messages once units and inboxes exist;
	// flows outside the schedule join it at maxLevel+1 (activateFlow).
	seed(applied graph.Batch, maxLevel int)
	// newWorker builds the private state of scheduler worker w. The driver
	// calls it once per worker and keeps the result across batches.
	newWorker(w int) unitWorker
}

// unitWorker is one scheduler worker's kernel state; processUnit runs a
// scheduling unit to local quiescence. Workers embed work, which supplies
// tally.
type unitWorker interface {
	processUnit(u *unit)
	tally() *work
}

// work is what a worker holds for one step only: the cache probe the
// driver forks for it before the step's units run, so the model sees cold
// private caches every batch, and its share of the batch's work counters
// (BatchStats' Relaxations, Pulls, CrossMsgs). Each worker counts into its
// own with plain adds, and the driver sums them once the units quiesce, so
// no counter is shared between workers.
type work struct {
	probe       cachesim.Probe
	relaxations int64 // edge relaxations / delta pushes / recomputes
	pulls       int64
	crossMsgs   int64
}

func (w *work) tally() *work { return w }

// add moves o's counts into w and zeroes them in o.
func (w *work) add(o *work) {
	w.relaxations += o.relaxations
	w.pulls += o.pulls
	w.crossMsgs += o.crossMsgs
	o.relaxations, o.pulls, o.crossMsgs = 0, 0, 0
}

// driver is processEdgeStream of Fig 10, once: validate, apply, maintain
// the D-trees and the flow graph, identify the impacted flows, build the
// space-time schedule, and run the units to quiescence — with cancellation
// and phase stamping. The three engines embed it and supply the kernel.
type driver struct {
	// G is the streaming graph the engine mutates batch by batch.
	G   *graph.Streaming
	cfg Config
	k   kernel
	// workers are the kernel's state for each scheduler worker, built once
	// and kept across batches.
	workers []unitWorker
	// plan, when non-nil, splits a batch into steps that are applied and
	// converged one after another (Local); nil means the batch is one step.
	plan      func(graph.Batch) []graph.Batch
	symmetric bool

	part *dflow.Partition
	fg   *dflow.FlowGraph

	probe    cachesim.Probe
	profiled bool
	inEdges  bool // the kernel pulls over in-edges: model their addresses too
	outIdx   *layout.EdgeIndex
	inIdx    *layout.EdgeIndex

	batches  int
	canceled bool // a batch was aborted mid-flight; state is inconsistent

	// Per-step execution state.
	unitsMu  sync.Mutex
	units    []*unit
	unitOf   []int32        // flow -> unit index (under unitsMu while units run)
	seeds    [][]uint32     // per-flow vertices the step invalidated
	impacted *dense.FlowSet // epoch-stamped impacted-flow scratch
	symm     Symmetrizer
	pl       *wsPool

	// counts sums the batch's work: every worker's tally once its step
	// quiesces.
	counts work

	trace   *WorkTrace
	traceMu sync.Mutex
}

// init binds the driver to its graph, configuration and kernel. The kernel
// then builds its D-trees, calls repartition, and installs its values.
func (d *driver) init(g *graph.Streaming, cfg Config, k kernel, symmetric bool) {
	d.G, d.cfg, d.k, d.symmetric = g, cfg, k, symmetric
	d.probe = cfg.probe()
	_, d.profiled = d.probe.(*cachesim.Sim)
	if cfg.HubThreshold > 0 {
		g.SetHubThresholds(cfg.HubThreshold, 0)
	}
	d.workers = make([]unitWorker, cfg.workers())
	for w := range d.workers {
		d.workers[w] = k.newWorker(w)
	}
}

// Partition exposes the current dependency-flow partition (read-only).
func (d *driver) Partition() *dflow.Partition { return d.part }

// ProcessBatch applies one batch of updates and incrementally reconverges.
// It panics on a malformed batch; ProcessBatchE is the error-returning form.
func (d *driver) ProcessBatch(batch graph.Batch) BatchStats {
	st, err := d.ProcessBatchE(batch)
	if err != nil {
		panic(err)
	}
	return st
}

// ProcessBatchE is ProcessBatch with graceful degradation: the batch is
// validated up front and a malformed update stream returns a
// *graph.BatchError without mutating any engine state, so a caller fed by
// an untrusted source can drop the bad batch and keep going.
func (d *driver) ProcessBatchE(batch graph.Batch) (BatchStats, error) {
	return d.ProcessBatchCtx(context.Background(), batch)
}

// ProcessBatchCtx is ProcessBatchE with cancellation: when ctx is canceled
// mid-batch the scheduler drains out after its in-flight units and the call
// returns ctx's error. A canceled batch leaves the engine mid-refinement —
// inconsistent by design — so every later call fails with ErrCanceled;
// recover by rebuilding the engine (wal.Recover replays a durable log).
func (d *driver) ProcessBatchCtx(ctx context.Context, batch graph.Batch) (BatchStats, error) {
	if d.canceled {
		return BatchStats{}, ErrCanceled
	}
	if err := ctx.Err(); err != nil {
		return BatchStats{}, err
	}
	if err := d.G.CheckBatch(batch); err != nil {
		return BatchStats{}, err
	}
	st := d.processBatch(ctx, batch)
	if err := ctx.Err(); err != nil {
		d.canceled = true
		return st, err
	}
	return st, nil
}

func (d *driver) processBatch(ctx context.Context, batch graph.Batch) BatchStats {
	var st BatchStats
	t0 := time.Now()
	d.probe.BeginBatch()
	if d.symmetric {
		batch = d.symm.Symmetrize(batch)
	}
	d.trace = nil
	if d.cfg.TraceWork {
		d.trace = newWorkTrace()
		st.Trace = d.trace
	}
	d.batches++
	d.counts = work{}

	// No clock re-derives the flows: step does so only when the kernel
	// rebuilt its D-trees. RepartitionEvery > 0 (a test lever) adds a
	// rebuild every K batches. A single-step batch takes it in place of its
	// incremental flow-graph upkeep; a planned batch takes it after its
	// last step, so no step pays a rebuild between two convergences.
	due := d.cfg.RepartitionEvery > 0 && d.batches%d.cfg.RepartitionEvery == 0
	if d.plan == nil {
		d.step(ctx, batch, due, &st)
	} else {
		for _, s := range d.plan(batch) {
			if ctx.Err() != nil {
				break
			}
			d.step(ctx, s, false, &st)
		}
		if due {
			t := time.Now()
			d.repartition()
			st.MaintainTime += time.Since(t)
		}
	}

	st.Relaxations = d.counts.relaxations
	st.Pulls = d.counts.pulls
	st.CrossMsgs = d.counts.crossMsgs
	st.Total = time.Since(t0)
	d.cfg.observe(&st)
	return st
}

// step applies one step's updates and reconverges, adding its work and
// phase durations to st.
func (d *driver) step(ctx context.Context, batch graph.Batch, repartition bool, st *BatchStats) {
	// (1) Graph update (Workers, in parallel) ...
	t := time.Now()
	applied := d.G.ApplyBatchParallel(batch, d.cfg.workers())
	st.Applied += len(applied)
	st.ApplyTime += time.Since(t)
	if len(applied) == 0 && d.plan != nil {
		return // a planned step that changed nothing
	}

	// (2) ... then the Manager maintains the dependency indexes: the
	// kernel's D-trees, and the flow graph incrementally unless the flows
	// are re-derived wholesale.
	t = time.Now()
	rebuilt := d.k.maintain(applied)
	st.DtreeTime += time.Since(t)
	if rebuilt || repartition {
		d.repartition()
	} else {
		for _, u := range applied {
			if u.Del {
				d.fg.DeleteEdge(u.Src, u.Dst)
			} else {
				d.fg.AddEdge(u.Src, u.Dst)
			}
		}
		d.refreshEdgeIndex()
	}
	st.MaintainTime += time.Since(t)

	// (3) Identify what the updates invalidate, at D-tree cost.
	t = time.Now()
	d.resetSeeds(d.part.NumFlows())
	roots, trimmed := d.k.trim(applied)
	st.TrimRoots += roots
	st.Trimmed += trimmed
	st.TrimTime += time.Since(t)

	d.converge(ctx, applied, st)
}

// repartition re-derives the flows from the kernel's D-trees, then the flow
// graph and (when profiling) the edge address model over them.
func (d *driver) repartition() {
	d.part = d.k.rebuild()
	if d.fg == nil {
		d.fg = dflow.NewFlowGraph(d.G, d.part)
	} else {
		d.fg.Rebuild(d.G, d.part)
	}
	d.refreshEdgeIndex()
}

func (d *driver) refreshEdgeIndex() {
	if !d.profiled {
		return
	}
	blocked := !d.cfg.ScatteredStorage
	d.outIdx = layout.NewEdgeIndexInto(d.outIdx, d.G, d.part, blocked)
	if d.inEdges {
		d.inIdx = layout.NewInEdgeIndexInto(d.inIdx, d.G, d.part, blocked)
	}
}

// migrateStore returns a store of dim-vectors laid out for part (or
// scattered, under the ablation) holding old's contents, if any.
func (d *driver) migrateStore(part *dflow.Partition, dim int, old *layout.Store) *layout.Store {
	n := d.G.NumVertices()
	var s *layout.Store
	if d.cfg.ScatteredStorage {
		s = layout.NewScatteredStore(n, dim)
	} else {
		s = layout.NewFlowStore(part, dim)
	}
	if old != nil {
		s.CopyFrom(old)
	}
	return s
}

// resetSeeds clears the per-flow seed lists and the impacted-flow set for a
// partition of nf flows, reusing both.
func (d *driver) resetSeeds(nf int) {
	if cap(d.seeds) < nf {
		d.seeds = make([][]uint32, nf)
	}
	d.seeds = d.seeds[:nf]
	for i := range d.seeds {
		d.seeds[i] = d.seeds[i][:0]
	}
	if d.impacted == nil {
		d.impacted = dense.NewSet[int32](nf)
	} else {
		d.impacted.Reset(nf)
	}
}

// seedVertex queues v for its flow's unit and marks the flow impacted.
func (d *driver) seedVertex(v uint32) {
	f := d.part.Flow(v)
	d.seeds[f] = append(d.seeds[f], v)
	d.impacted.Add(f)
}

// converge builds the space-time schedule over the impacted flows (cyclic
// groups merged) and runs the units to quiescence, or until ctx cancels.
func (d *driver) converge(ctx context.Context, applied graph.Batch, st *BatchStats) {
	t := time.Now()
	flows := d.impacted.Members()
	var groups []dflow.Group
	if d.cfg.NoSCCMerge {
		for _, f := range flows {
			groups = append(groups, dflow.Group{Flows: []int32{f}})
		}
	} else {
		groups = dflow.Schedule(d.fg, flows)
	}
	maxLevel := 0
	for _, g := range groups {
		if g.Level > maxLevel {
			maxLevel = g.Level
		}
	}
	st.Impacted += len(flows)
	st.Units += len(groups)
	if maxLevel+1 > st.Levels {
		st.Levels = maxLevel + 1
	}

	n := d.part.NumFlows()
	d.units = d.units[:0]
	if cap(d.unitOf) < n {
		d.unitOf = make([]int32, n)
	}
	d.unitOf = d.unitOf[:n]
	for i := range d.unitOf {
		d.unitOf[i] = -1
	}
	// One unit per flow with its group's schedule level: the SCC
	// condensation provides the space-time *order*; flows still execute
	// concurrently (every kernel's protocol is interleaving-safe), which
	// preserves the vertex-level parallelism §VI calls for inside large
	// dependency groups.
	for _, grp := range groups {
		for _, f := range grp.Flows {
			d.unitOf[f] = d.addUnit(f, grp.Level).id
		}
	}
	d.k.resetInboxes(n)
	d.pl = d.cfg.newScheduler()
	st.ScheduleTime += time.Since(t)

	t = time.Now()
	d.k.seed(applied, maxLevel)
	for _, w := range d.workers {
		w.tally().probe = d.probe.Fork()
	}
	for _, u := range d.units {
		d.pl.activate(u)
	}
	stopWatch := watchCancel(ctx, d.pl)
	d.pl.run(len(d.workers), func(w int, u *unit) { d.workers[w].processUnit(u) })
	stopWatch()
	d.k.release()
	for _, w := range d.workers {
		d.counts.add(w.tally())
	}
	ss := d.pl.stats()
	st.Dispatches += ss.Dispatches
	st.Steals += ss.Steals
	st.SchedParks += ss.Parks
	st.ComputeTime += time.Since(t)
}

// addUnit appends a singleton unit for flow f. Callers publish its id in
// unitOf (activateFlow does so under unitsMu).
func (d *driver) addUnit(f int32, level int) *unit {
	u := &unit{id: int32(len(d.units)), flow: f, level: level}
	d.units = append(d.units, u)
	return u
}

// activateFlow ensures flow f has a unit and activates it, lazily creating
// singleton units for flows outside the schedule. Safe from any worker.
func (d *driver) activateFlow(f int32, level int) {
	d.unitsMu.Lock()
	ui := d.unitOf[f]
	if ui == -1 {
		ui = d.addUnit(f, level).id
		d.unitOf[f] = ui
	}
	u := d.units[ui]
	d.unitsMu.Unlock()
	d.pl.activate(u)
}

func (d *driver) traceWork(f int32, n int64) {
	d.traceMu.Lock()
	d.trace.FlowWork[f] += n
	d.traceMu.Unlock()
}

func (d *driver) traceMsg(from, to int32) {
	d.traceMu.Lock()
	d.trace.FlowMsgs[[2]int32{from, to}]++
	d.traceMu.Unlock()
}

// maintainForest folds applied into a structural D-tree forest:
// incremental O(1)-amortized per update, with a lazy rebuild — reported to
// the caller — when enough deletions have accumulated (hyper-vertex
// separation, §IV-C).
func maintainForest(f *etree.Forest, g *graph.Streaming, applied graph.Batch) (rebuilt bool) {
	for _, u := range applied {
		if u.Del {
			f.DeleteEdge(g, u.Src, u.Dst)
		} else {
			f.AddEdge(u.Src, u.Dst)
		}
	}
	return f.RebuildIfDirty(g, 0.2)
}

// resizeInboxes returns n cleared mailboxes, reusing in's capacity.
func resizeInboxes[T any](in []inbox[T], n int) []inbox[T] {
	if cap(in) < n {
		in = make([]inbox[T], n)
	}
	in = in[:n]
	for i := range in {
		in[i].reset()
	}
	return in
}

// outbox batches one worker's cross-flow messages per target flow. It is
// flushed after each of a unit's rounds (at the latest before the unit goes
// idle or yields), so one inbox lock and one scheduler activation cover
// many messages instead of one each.
// Targets are delivered in the order they were first touched, which keeps a
// one-worker run deterministic. The buffers keep their capacity from flush
// to flush until release.
type outbox[T any] struct {
	bufs    [][]T   // pending messages by target flow
	touched []int32 // targets with pending messages, first-touched order
}

// to returns target flow f's pending buffer, registering f as touched. The
// caller must append to it before the next call.
func (o *outbox[T]) to(f int32) *[]T {
	if int(f) >= len(o.bufs) {
		o.bufs = append(o.bufs, make([][]T, int(f)+1-len(o.bufs))...)
	}
	b := &o.bufs[f]
	if len(*b) == 0 {
		o.touched = append(o.touched, f)
	}
	return b
}

// flush delivers each target's messages as one putAll and activates the
// target at level.
func (o *outbox[T]) flush(d *driver, inboxes []inbox[T], level int) {
	for _, f := range o.touched {
		inboxes[f].putAll(o.bufs[f])
		o.bufs[f] = o.bufs[f][:0]
		d.activateFlow(f, level)
	}
	o.touched = o.touched[:0]
}

// release applies the inbox's capacity decay to the buffers: one at or
// under inboxTrimCap is kept for the next step, a larger one dropped. Call
// it once the step's units quiesce.
func (o *outbox[T]) release() {
	for f, b := range o.bufs {
		o.bufs[f] = decayed(b)
	}
}
