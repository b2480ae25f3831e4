package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/dflow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// family is one engine family behind the shared batch driver, as the
// driver tests see it.
type family struct {
	name string
	// build makes a fresh engine over w's initial graph and returns its
	// driver entry points.
	build func(w gen.Workload, cfg Config) familyEngine
}

type familyEngine struct {
	process func(context.Context, graph.Batch) (BatchStats, error)
	values  func() []float64
}

func mirrored(es []graph.Edge) []graph.Edge {
	var both []graph.Edge
	for _, e := range es {
		both = append(both, e, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
	}
	return both
}

// families lists one algorithm per engine family.
var families = []family{
	{"SSSP", func(w gen.Workload, cfg Config) familyEngine {
		e := NewSelective(graph.FromEdges(w.NumV, w.Initial), algo.SSSP{Src: 0}, cfg)
		return familyEngine{e.ProcessBatchCtx, e.Values}
	}},
	{"PageRank", func(w gen.Workload, cfg Config) familyEngine {
		e := NewAccumulative(graph.FromEdges(w.NumV, w.Initial), algo.NewPageRank(w.NumV), cfg)
		return familyEngine{e.ProcessBatchCtx, e.Values}
	}},
	{"kCore", func(w gen.Workload, cfg Config) familyEngine {
		e := NewLocal(graph.FromEdges(w.NumV, mirrored(w.Initial)), algo.KCore{}, cfg)
		return familyEngine{e.ProcessBatchCtx, e.Values}
	}},
}

// TestDriverConformance holds the three families to the one contract the
// batch driver implements for all of them.
func TestDriverConformance(t *testing.T) {
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			w := smallWorkload(91, 3)
			reg := metrics.NewRegistry()
			e := f.build(w, Config{Workers: 2, FlowCap: 64, Metrics: reg})
			bg := context.Background()

			// A malformed batch is rejected whole, before anything mutates.
			before := e.values()
			bad := append(graph.Batch{}, w.Batches[0]...)
			bad = append(bad, graph.Update{Edge: graph.Edge{Src: 0, Dst: graph.VertexID(w.NumV), W: 1}})
			var be *graph.BatchError
			if _, err := e.process(bg, bad); !errors.As(err, &be) {
				t.Fatalf("malformed batch: want *graph.BatchError, got %v", err)
			}
			for v, x := range e.values() {
				if x != before[v] {
					t.Fatalf("malformed batch mutated vertex %d: %v -> %v", v, before[v], x)
				}
			}
			if n := reg.Counter("batch.count").Value(); n != 0 {
				t.Fatalf("rejected batch counted: batch.count = %d", n)
			}

			// One ProcessBatch is one batch.count, however many plan steps
			// it took, and the driver stamps every phase of a batch that did
			// work — the same way for every family.
			for i, b := range w.Batches {
				st, err := e.process(bg, b)
				if err != nil {
					t.Fatal(err)
				}
				if n := reg.Counter("batch.count").Value(); n != int64(i+1) {
					t.Fatalf("batch %d: batch.count = %d", i, n)
				}
				if st.Applied == 0 || st.Impacted == 0 {
					t.Fatalf("batch %d did no work: %+v", i, st)
				}
				// Every scheduled unit is dispatched at least once, in every
				// plan step: the scheduler counters add up across steps.
				if st.Dispatches < int64(st.Units) {
					t.Fatalf("batch %d: %d dispatches for %d units", i, st.Dispatches, st.Units)
				}
				phases := map[string]time.Duration{
					"apply": st.ApplyTime, "maintain": st.MaintainTime, "dtree": st.DtreeTime,
					"trim": st.TrimTime, "schedule": st.ScheduleTime, "compute": st.ComputeTime,
				}
				for name, d := range phases {
					if d <= 0 {
						t.Fatalf("batch %d: %s time not stamped: %+v", i, name, st)
					}
				}
				// DtreeTime is the D-tree share of MaintainTime, not a
				// phase of its own.
				if st.DtreeTime > st.MaintainTime {
					t.Fatalf("batch %d: dtree %v exceeds maintain %v", i, st.DtreeTime, st.MaintainTime)
				}
				if sum := st.ApplyTime + st.MaintainTime + st.TrimTime + st.ScheduleTime + st.ComputeTime; sum > st.Total {
					t.Fatalf("batch %d: phases sum to %v, more than the total %v", i, sum, st.Total)
				}
			}

			// A context that is already dead touches nothing ...
			dead, cancel := context.WithCancel(bg)
			cancel()
			if _, err := e.process(dead, w.Batches[0]); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-canceled: want context.Canceled, got %v", err)
			}
			if _, err := e.process(bg, w.Batches[0]); err != nil {
				t.Fatalf("engine must stay usable after a pre-canceled call: %v", err)
			}
			// ... but one that dies mid-batch poisons every later call.
			mid := &cancelAfterChecks{Context: bg, live: 1}
			if _, err := e.process(mid, w.Batches[1]); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled mid-batch: want context.Canceled, got %v", err)
			}
			for i := 0; i < 2; i++ {
				if _, err := e.process(bg, w.Batches[2]); !errors.Is(err, ErrCanceled) {
					t.Fatalf("call %d after a canceled batch: want ErrCanceled, got %v", i, err)
				}
			}
		})
	}
}

// TestQuiescenceInvariant holds every kernel to the state a batch must end
// in (DESIGN.md §4.15), after every batch and whatever the worker count:
// every inbox is empty, no worker's outbox holds a message or a touched
// target, and every unit of the last step is idle. A message flushed after
// its receiver went idle, or left buffered on a sender, fails here.
func TestQuiescenceInvariant(t *testing.T) {
	w := fuzzBA(0x9e1, gen.StreamConfig{InitialFraction: 0.6, DeleteRatio: 0.3, NumBatches: 5})
	kinds := []struct {
		name  string
		build func(cfg Config) *driver
	}{
		{"SSSP", func(cfg Config) *driver {
			return &NewSelective(graph.FromEdges(w.NumV, w.Initial), algo.SSSP{Src: 0}, cfg).driver
		}},
		{"CC", func(cfg Config) *driver {
			return &NewSelective(graph.FromEdges(w.NumV, mirrored(w.Initial)), algo.CC{}, cfg).driver
		}},
		{"PageRank", func(cfg Config) *driver {
			return &NewAccumulative(graph.FromEdges(w.NumV, w.Initial), algo.NewPageRank(w.NumV), cfg).driver
		}},
		{"kCore", func(cfg Config) *driver {
			return &NewLocal(graph.FromEdges(w.NumV, mirrored(w.Initial)), algo.KCore{}, cfg).driver
		}},
	}
	for _, k := range kinds {
		for _, workers := range []int{1, 3, 4} {
			t.Run(fmt.Sprintf("%s/w%d", k.name, workers), func(t *testing.T) {
				d := k.build(Config{Workers: workers, FlowCap: 16})
				if len(d.workers) != workers {
					t.Fatalf("driver keeps %d workers, want %d", len(d.workers), workers)
				}
				var msgs int64
				for bi, b := range w.Batches {
					msgs += d.ProcessBatch(b).CrossMsgs
					checkQuiescent(t, d, bi)
				}
				if msgs == 0 {
					t.Fatal("the stream sent no cross-flow message: nothing was checked")
				}
			})
		}
	}
}

func checkQuiescent(t *testing.T, d *driver, batch int) {
	t.Helper()
	var full int
	switch e := d.k.(type) {
	case *Selective:
		full = undrained(e.inboxes)
	case *Accumulative:
		full = undrained(e.inboxes)
	case *Local:
		full = undrained(e.inboxes)
	}
	if full >= 0 {
		t.Fatalf("batch %d: inbox of flow %d not drained", batch, full)
	}
	for wi, w := range d.workers {
		var pending []int32
		switch w := w.(type) {
		case *selWorker:
			pending = w.out.pending()
		case *accWorker:
			pending = w.out.pending()
		case *localWorker:
			pending = w.out.pending()
		}
		if len(pending) > 0 {
			t.Fatalf("batch %d: worker %d outbox holds messages for flows %v", batch, wi, pending)
		}
	}
	for _, u := range d.units {
		if s := u.state.Load(); s != unitIdle {
			t.Fatalf("batch %d: unit of flow %d ended in state %d", batch, u.flow, s)
		}
	}
}

// undrained returns the first flow whose inbox holds a message, or -1.
func undrained[T any](in []inbox[T]) int {
	for f := range in {
		if !in[f].empty() {
			return f
		}
	}
	return -1
}

// pending lists the touched targets and the targets with buffered messages.
func (o *outbox[T]) pending() []int32 {
	fs := slices.Clone(o.touched)
	for f, b := range o.bufs {
		if len(b) > 0 {
			fs = append(fs, int32(f))
		}
	}
	return fs
}

// cancelAfterChecks is a context that reports itself canceled from the
// (live+1)th Err call on: with live = 1 it passes the driver's entry check
// and reads as canceled from then on — a deterministic cancellation inside
// the batch.
type cancelAfterChecks struct {
	context.Context
	live int
}

func (c *cancelAfterChecks) Err() error {
	if c.live > 0 {
		c.live--
		return nil
	}
	return context.Canceled
}

// goldenWork is what one batch did, in the order TestGoldenWorkCounters
// compares: Applied, TrimRoots, Trimmed, Impacted, Units, Levels, Pulls —
// fixed by the stream alone — then Relaxations and CrossMsgs.
type goldenWork [9]int64

func workOf(st BatchStats) goldenWork {
	return goldenWork{int64(st.Applied), int64(st.TrimRoots), int64(st.Trimmed), int64(st.Impacted),
		int64(st.Units), int64(st.Levels), st.Pulls, st.Relaxations, st.CrossMsgs}
}

// goldenCounters were captured at the commit before the batch driver was
// extracted (fc77b1b, per-engine drivers), on the stream and configuration
// TestGoldenWorkCounters builds. Two families were re-captured when the
// inbox lost its round-robin shards, in the last two columns only: the
// one-lock inbox drains in put order, which changes the order messages are
// applied in, and with it pushes and cross-flow messages. For SSSP that
// moved the last three rows; for kCore all seven, whose earlier goldens
// came from a local worker that flushed in map order. The Units column was
// re-captured when the driver stopped condensing the impacted flows into
// SCC groups: it counted the groups, and now counts the units the batch
// seeds, one per impacted flow, so it equals Impacted. No other column
// moved.
var goldenCounters = map[string][]goldenWork{
	"SSSP": {
		{145, 8, 18, 2, 2, 1, 61, 231, 2},
		{149, 11, 72, 6, 6, 1, 461, 431, 36},
		{148, 8, 10, 4, 4, 1, 8, 78, 0},
		{146, 5, 14, 5, 5, 1, 78, 273, 17},
		{148, 7, 19, 6, 6, 1, 74, 220, 13},
		{148, 6, 11, 5, 5, 1, 15, 266, 10},
		{146, 5, 16, 5, 5, 1, 70, 143, 4},
	},
	"PageRank": {
		{145, 0, 145, 8, 8, 1, 0, 54526, 4540},
		{149, 0, 149, 8, 8, 1, 0, 60290, 4824},
		{148, 0, 148, 7, 7, 1, 0, 84078, 6808},
		{146, 0, 146, 8, 8, 1, 0, 64554, 4725},
		{148, 0, 148, 8, 8, 1, 0, 66494, 4515},
		{148, 0, 148, 8, 8, 1, 0, 72150, 5205},
		{146, 0, 146, 8, 8, 1, 0, 71535, 5012},
	},
	"kCore": {
		{260, 0, 1167, 251, 251, 1, 0, 16053, 12104},
		{272, 0, 1211, 284, 284, 1, 0, 15398, 11644},
		{258, 0, 1149, 266, 266, 1, 0, 15735, 11709},
		{252, 0, 1456, 290, 290, 1, 0, 21404, 15659},
		{272, 0, 1226, 282, 282, 1, 0, 16104, 11900},
		{268, 0, 1242, 247, 247, 1, 0, 16398, 12010},
		{252, 0, 981, 285, 285, 1, 0, 13216, 10280},
	},
}

// TestGoldenWorkCounters proves the driver changed where the code lives,
// not what work is done: on a fixed seeded RMAT stream with one worker the
// per-batch work counters equal those the per-engine drivers produced.
// RepartitionEvery 3 puts two periodic flow rebuilds inside the stream.
//
// Every kernel buffers its cross-flow messages in an ordered outbox and
// flushes them in first-touched target order, and an inbox drains in put
// order, so a one-worker run is deterministic and every family is held
// exact.
func TestGoldenWorkCounters(t *testing.T) {
	ds := gen.TestDataset(4242)
	w := gen.BuildWorkload(ds.NumV, gen.Generate(ds), gen.StreamConfig{
		InitialFraction: 0.5, DeleteRatio: 0.3, BatchSize: 150, NumBatches: 7, Seed: 4243,
	})
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			e := f.build(w, Config{Workers: 1, FlowCap: 64, RepartitionEvery: 3})
			for i, b := range w.Batches {
				st, err := e.process(context.Background(), b)
				if err != nil {
					t.Fatal(err)
				}
				got, want := workOf(st), goldenCounters[f.name][i]
				if got != want {
					t.Errorf("batch %d: got %v, want %v", i, got, want)
				}
			}
		})
	}
}

// TestUnitOrder pins the order one worker runs a step's units in. The
// units the step seeds, one per impacted flow, are made in ascending flow
// id and sit in band 0; a flow only a message reaches gets a band-1 unit
// when the message is sent. Every seeded unit first runs before any band-1
// unit does, and the band-1 units first run in the order they were first
// activated. The seeded flows run in ascending flow id, except that SSSP's
// seeding posts its addition relaxations before the seeded units are
// queued: a seeded flow an added edge points into may run ahead of the
// rest.
func TestUnitOrder(t *testing.T) {
	ds := gen.TestDataset(4242)
	w := gen.BuildWorkload(ds.NumV, gen.Generate(ds), gen.StreamConfig{
		InitialFraction: 0.5, DeleteRatio: 0.3, BatchSize: 150, NumBatches: 7, Seed: 4243,
	})
	cfg := Config{Workers: 1, FlowCap: 16}
	sel := NewSelective(graph.FromEdges(w.NumV, w.Initial), algo.SSSP{Src: 0}, cfg)
	acc := NewAccumulative(graph.FromEdges(w.NumV, w.Initial), algo.NewPageRank(w.NumV), cfg)
	loc := NewLocal(graph.FromEdges(w.NumV, mirrored(w.Initial)), algo.KCore{}, cfg)
	for _, c := range []struct {
		name    string
		d       *driver
		reached bool // seeding posts messages before the seeded units are queued
	}{
		{"SSSP", &sel.driver, true},
		{"PageRank", &acc.driver, false},
		{"kCore", &loc.driver, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := c.d
			// steps holds each step's units in the order they first ran. A
			// step's units live in d.units until the next step resets it.
			var steps [][]*unit
			var seen map[*unit]bool
			d.ran = func(u *unit) {
				if n := len(steps); n == 0 || !stepOf(d, steps[n-1][0]) {
					steps, seen = append(steps, nil), map[*unit]bool{}
				}
				if !seen[u] {
					seen[u] = true
					steps[len(steps)-1] = append(steps[len(steps)-1], u)
				}
			}
			ordered, seeded, early := 0, 0, 0
			for i, b := range w.Batches {
				steps = steps[:0]
				d.ProcessBatch(b)
				// The flows an added edge points into: the only ones SSSP's
				// seeding can queue ahead of the ascending order.
				into := map[int32]bool{}
				for _, u := range b {
					if c.reached && !u.Del {
						into[d.part.Flow(uint32(u.Dst))] = true
					}
				}
				for _, runs := range steps {
					k := 0
					for k < len(runs) && runs[k].band == bandSeeded {
						k++
					}
					for j, u := range runs[k:] {
						if u.band != bandReached {
							t.Fatalf("batch %d: seeded flow %d first ran after a message-reached one: flows %v", i, u.flow, flowsOf(runs))
						}
						if j > 0 && u.id < runs[k+j-1].id {
							t.Fatalf("batch %d: message-reached flows ran out of activation order: units %v", i, unitOrder(runs))
						}
					}
					ids := make([]int32, k)
					for j, u := range runs[:k] {
						ids[j] = u.id
					}
					slices.Sort(ids)
					for j, id := range ids {
						if int(id) != j {
							t.Fatalf("batch %d: seeded units ran as %v, want ids 0..%d once each", i, unitOrder(runs[:k]), k-1)
						}
					}
					// The seeded flows past the shortest non-ascending prefix
					// run in ascending flow id; that prefix may hold only
					// flows an added edge points into.
					m := k
					for m > 0 && (m == k || runs[m-1].flow < runs[m].flow) {
						m--
					}
					for _, u := range runs[:m] {
						if !into[u.flow] {
							t.Fatalf("batch %d: seeded flows ran as %v, not in ascending flow id", i, flowsOf(runs[:k]))
						}
					}
					if k >= 2 && len(runs) > k {
						ordered++
					}
					seeded += k
					early += m
				}
			}
			if ordered == 0 {
				t.Fatal("no step ran two seeded flows and a message-reached one: the order went unchecked")
			}
			t.Logf("%d steps ran both bands; %d of %d seeded flows ran ahead of the ascending order", ordered, early, seeded)
		})
	}
}

// flowsOf lists the units' flows, in order.
func flowsOf(us []*unit) []int32 {
	fs := make([]int32, len(us))
	for i, u := range us {
		fs[i] = u.flow
	}
	return fs
}

// stepOf reports whether u is one of the units of d's current step.
func stepOf(d *driver, u *unit) bool {
	return int(u.id) < len(d.units) && d.units[u.id] == u
}

// TestMigrateStore: a repartition's slot-to-slot copy carries every vertex's
// vector into the new layout, whichever of flow-blocked and scattered the
// two stores are, for scalar and vector values.
func TestMigrateStore(t *testing.T) {
	ds := gen.TestDataset(7)
	g := graph.FromEdges(ds.NumV, gen.Generate(ds))
	_, parent := algo.SolveSelective(g, algo.SSSP{Src: 0})
	partA := dflow.NewPartitionFromParents(parent, 16)
	partB := dflow.NewPartitionFromParents(parent, 50)
	for _, dim := range []int{1, 4} {
		for _, tc := range []struct {
			name                       string
			fromScattered, toScattered bool
		}{
			{"blocked to blocked", false, false},
			{"blocked to scattered", false, true},
			{"scattered to blocked", true, false},
			{"scattered to scattered", true, true},
		} {
			d := &driver{G: g, cfg: Config{ScatteredStorage: tc.fromScattered}}
			old := d.migrateStore(partA, dim, nil)
			for v := 0; v < ds.NumV; v++ {
				for c := 0; c < dim; c++ {
					old.SetAt(uint32(v), c, float64(v*10+c)+0.5)
				}
			}
			d.cfg.ScatteredStorage = tc.toScattered
			s := d.migrateStore(partB, dim, old)
			if s.Len() != ds.NumV || s.Dim() != dim {
				t.Fatalf("dim %d %s: store is %d x %d", dim, tc.name, s.Len(), s.Dim())
			}
			blocked := false
			for v := 0; v < ds.NumV; v++ {
				blocked = blocked || s.Slot(uint32(v)) != int32(v)
				for c := 0; c < dim; c++ {
					if got, want := s.GetAt(uint32(v), c), float64(v*10+c)+0.5; got != want {
						t.Fatalf("dim %d %s: vertex %d component %d = %v, want %v", dim, tc.name, v, c, got, want)
					}
				}
			}
			if blocked == tc.toScattered {
				t.Fatalf("dim %d %s: flow-blocked layout = %v", dim, tc.name, blocked)
			}
		}
	}
}

// TestFlowsHaveNoClock: under the default Config a selective engine keeps
// the partition it was built with, pointer and membership, for a whole
// 40-batch stream, because its kernel never rebuilds its D-trees wholesale.
// RepartitionEvery 3, the test lever, re-derives the flows at exactly
// batches 3, 6, 9, ....
func TestFlowsHaveNoClock(t *testing.T) {
	w := smallWorkload(31, 40)
	for _, every := range []int{0, 3} {
		e := NewSelective(graph.FromEdges(w.NumV, w.Initial), algo.SSSP{Src: 0},
			Config{Workers: 2, FlowCap: 32, RepartitionEvery: every})
		flowOf := slices.Clone(e.Partition().FlowOf)
		for i, b := range w.Batches {
			before := e.Partition()
			e.ProcessBatch(b)
			rederived := e.Partition() != before
			if want := every > 0 && (i+1)%every == 0; rederived != want {
				t.Fatalf("RepartitionEvery %d, batch %d: flows re-derived = %v, want %v", every, i+1, rederived, want)
			}
			if every == 0 && !slices.Equal(e.Partition().FlowOf, flowOf) {
				t.Fatalf("batch %d: flow membership moved with no clock", i+1)
			}
		}
	}
}

// maintainSpy reports whether any maintain call since the last reset
// rebuilt the kernel's D-trees.
type maintainSpy struct {
	kernel
	rebuilt bool
}

func (s *maintainSpy) maintain(applied graph.Batch) bool {
	r := s.kernel.maintain(applied)
	s.rebuilt = s.rebuilt || r
	return r
}

// TestFlowsFollowForestRebuilds: under the default Config the structural
// kernels re-derive their flows on exactly the batches in which maintain
// reported a wholesale D-tree rebuild — for the local engine, in any step
// of its plan.
func TestFlowsFollowForestRebuilds(t *testing.T) {
	w := gen.BuildWorkload(512, gen.Generate(gen.TestDataset(37)), gen.StreamConfig{
		InitialFraction: 0.8, DeleteRatio: 0.7, BatchSize: 200, NumBatches: 40, Seed: 38,
	})
	cfg := Config{Workers: 2, FlowCap: 32}
	engines := map[string]*driver{
		"PageRank": &NewAccumulative(graph.FromEdges(w.NumV, w.Initial), algo.NewPageRank(w.NumV), cfg).driver,
		"kCore":    &NewLocal(graph.FromEdges(w.NumV, mirrored(w.Initial)), algo.KCore{}, cfg).driver,
	}
	for name, d := range engines {
		spy := &maintainSpy{kernel: d.k}
		d.k = spy
		rebuilds := 0
		for i, b := range w.Batches {
			spy.rebuilt = false
			before := d.Partition()
			d.ProcessBatch(b)
			if rederived := d.Partition() != before; rederived != spy.rebuilt {
				t.Fatalf("%s batch %d: flows re-derived = %v, D-trees rebuilt = %v", name, i+1, rederived, spy.rebuilt)
			}
			if spy.rebuilt {
				rebuilds++
			}
		}
		if rebuilds == 0 || rebuilds == len(w.Batches) {
			t.Fatalf("%s: %d of %d batches rebuilt the D-trees; the stream must mix both", name, rebuilds, len(w.Batches))
		}
	}
}
