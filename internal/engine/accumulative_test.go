package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/cachesim"
	"repro/internal/gen"
	"repro/internal/graph"
)

// accTolerance bounds the allowed divergence between the asynchronous
// engine and the synchronous reference solver; both stop within epsilon of
// the unique fixpoint, so the gap is a small multiple of epsilon scaled by
// the contraction factor.
const accTolerance = 1e-5

func checkAccAgainstStatic(t *testing.T, mkAlg func(w gen.Workload) algo.Accumulative, cfg Config, w gen.Workload) {
	t.Helper()
	g := graph.FromEdges(w.NumV, w.Initial)
	alg := mkAlg(w)
	e := NewAccumulative(g, alg, cfg)
	ref := g.Clone()

	// Initial convergence must already match.
	want := algo.SolveAccumulative(ref, alg)
	compare(t, alg.Name(), -1, e.Values(), want)

	for bi, b := range w.Batches {
		e.ProcessBatch(b)
		ref.ApplyBatch(b)
		want = algo.SolveAccumulative(ref, alg)
		compare(t, alg.Name(), bi, e.Values(), want)
	}
}

func compare(t *testing.T, name string, batch int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s batch %d: dims differ %d vs %d", name, batch, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > accTolerance {
			t.Fatalf("%s batch %d: component %d = %v, want %v (|Δ|=%g)",
				name, batch, i, got[i], want[i], math.Abs(got[i]-want[i]))
		}
	}
}

func prAlg(w gen.Workload) algo.Accumulative { return algo.NewPageRank(w.NumV) }

func lpAlg(w gen.Workload) algo.Accumulative {
	seeds := map[graph.VertexID]int{}
	for i := 0; i < 8; i++ {
		seeds[graph.VertexID(i*17%w.NumV)] = i % 4
	}
	return algo.NewLabelPropagation(4, seeds)
}

func accWorkload(seed uint64, batches int) gen.Workload {
	cfg := gen.TestDataset(seed)
	cfg.NumV, cfg.NumE = 256, 1500
	edges := gen.Generate(cfg)
	return gen.BuildWorkload(cfg.NumV, edges, gen.StreamConfig{
		InitialFraction: 0.5, DeleteRatio: 0.3, BatchSize: 120,
		NumBatches: batches, Seed: seed + 2,
	})
}

func TestAccumulativePageRankMatchesStatic(t *testing.T) {
	checkAccAgainstStatic(t, prAlg, Config{Workers: 4, FlowCap: 32}, accWorkload(21, 5))
}

func TestAccumulativeLPMatchesStatic(t *testing.T) {
	checkAccAgainstStatic(t, lpAlg, Config{Workers: 4, FlowCap: 32}, accWorkload(22, 4))
}

func TestAccumulativeSingleWorker(t *testing.T) {
	checkAccAgainstStatic(t, prAlg, Config{Workers: 1, FlowCap: 16}, accWorkload(23, 3))
}

func TestAccumulativeScatteredAblation(t *testing.T) {
	checkAccAgainstStatic(t, prAlg, Config{Workers: 4, FlowCap: 32, ScatteredStorage: true}, accWorkload(24, 3))
}

func TestAccumulativeRepartitionEveryBatch(t *testing.T) {
	checkAccAgainstStatic(t, prAlg, Config{Workers: 4, FlowCap: 32, RepartitionEvery: 1}, accWorkload(26, 3))
}

func TestAccumulativeProfiled(t *testing.T) {
	sim := cachesim.NewSim(cachesim.DefaultConfig())
	checkAccAgainstStatic(t, prAlg, Config{Workers: 2, FlowCap: 32, Probe: sim}, accWorkload(27, 2))
	if sim.Drain().Total() == 0 {
		t.Fatal("profiled accumulative run recorded no accesses")
	}
}

func TestAccumulativeDeletionHeavy(t *testing.T) {
	cfg := gen.TestDataset(28)
	cfg.NumV, cfg.NumE = 200, 1200
	edges := gen.Generate(cfg)
	w := gen.BuildWorkload(cfg.NumV, edges, gen.StreamConfig{
		InitialFraction: 0.7, DeleteRatio: 0.8, BatchSize: 100, NumBatches: 4, Seed: 29,
	})
	checkAccAgainstStatic(t, prAlg, Config{Workers: 4, FlowCap: 32}, w)
}

func TestAccumulativeStats(t *testing.T) {
	w := accWorkload(30, 1)
	g := graph.FromEdges(w.NumV, w.Initial)
	e := NewAccumulative(g, algo.NewPageRank(w.NumV), Config{Workers: 2, FlowCap: 32})
	st := e.ProcessBatch(w.Batches[0])
	if st.Applied == 0 || st.Total <= 0 {
		t.Fatalf("stats incomplete: %+v", st)
	}
	if st.Relaxations == 0 {
		t.Fatal("no pushes recorded for a non-trivial batch")
	}
}

func TestAccumulativeBackwardFlows(t *testing.T) {
	// §V-A Discussion: swapping the triangles' roles must not change the
	// fixpoint, only the flow structure.
	checkAccAgainstStatic(t, prAlg, Config{Workers: 4, FlowCap: 32, BackwardFlows: true}, accWorkload(31, 3))
}

// aggTolerance bounds the rounding gap between an aggregate folded delta by
// delta and the same sum recomputed from scratch, relative to the sum of
// the terms' magnitudes (plus one, for sums near zero).
const aggTolerance = 1e-9

// TestAccumulativeAggregateInvariant checks the state every batch must end
// in, whatever the worker count, on a hub-skewed stream: for every vertex v, agg(v) = Σ_{u→v} w_uv·lastUnit(u) recomputed from the
// graph; every inbox is drained; and every worker's combining outbox is
// empty with its index cleared. A cross-flow delta that is lost, applied
// twice, or left in a worker's outbox fails the first or the last check.
func TestAccumulativeAggregateInvariant(t *testing.T) {
	algs := []struct {
		name string
		mk   func(w gen.Workload) algo.Accumulative
	}{{"PageRank", prAlg}, {"LP", lpAlg}}
	for _, a := range algs {
		for _, workers := range []int{1, 2, 3, 4} {
			t.Run(fmt.Sprintf("%s/w%d", a.name, workers), func(t *testing.T) {
				w := fuzzBA(0xa66001, gen.StreamConfig{
					InitialFraction: 0.6, DeleteRatio: 0.3, NumBatches: 5,
				})
				cfg := Config{Workers: workers, FlowCap: 16}
				e := NewAccumulative(graph.FromEdges(w.NumV, w.Initial), a.mk(w), cfg)
				checkAggInvariant(t, e, -1)
				for bi, b := range w.Batches {
					e.ProcessBatch(b)
					checkAggInvariant(t, e, bi)
				}
			})
		}
	}
}

func checkAggInvariant(t *testing.T, e *Accumulative, batch int) {
	t.Helper()
	n, dim := e.G.NumVertices(), e.dim
	want := make([]float64, n*dim)
	mag := make([]float64, n*dim)
	unit := make([]float64, dim)
	for u := 0; u < n; u++ {
		e.lastUnit.GetVec(uint32(u), unit)
		for _, h := range e.G.Out(graph.VertexID(u)) {
			for d, x := range unit {
				want[int(h.To)*dim+d] += h.W * x
				mag[int(h.To)*dim+d] += math.Abs(h.W * x)
			}
		}
	}
	got := make([]float64, dim)
	for v := 0; v < n; v++ {
		e.agg.GetVec(uint32(v), got)
		for d, x := range got {
			i := v*dim + d
			if math.Abs(x-want[i]) > aggTolerance*(1+mag[i]) {
				t.Fatalf("batch %d: agg(%d)[%d] = %v, Σ w·lastUnit = %v", batch, v, d, x, want[i])
			}
		}
	}
	for f := range e.inboxes {
		if !e.inboxes[f].empty() {
			t.Fatalf("batch %d: inbox of flow %d not drained", batch, f)
		}
	}
	for wi, w := range e.workers {
		aw := w.(*accWorker)
		if len(aw.out.touched) > 0 {
			t.Fatalf("batch %d: worker %d outbox holds messages for flows %v", batch, wi, aw.out.touched)
		}
		for f, b := range aw.out.bufs {
			if len(b) > 0 {
				t.Fatalf("batch %d: worker %d outbox holds %d messages for flow %d", batch, wi, len(b), f)
			}
		}
		for v, at := range aw.at {
			if at != -1 {
				t.Fatalf("batch %d: worker %d combining index still maps vertex %d", batch, wi, v)
			}
		}
	}
}
