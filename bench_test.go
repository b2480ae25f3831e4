package graphfly

// One benchmark per table and figure of the paper's evaluation (§VII),
// plus the design-choice ablations from DESIGN.md. Each benchmark runs the
// corresponding harness runner (internal/expr) at a laptop scale; use
// cmd/bench for readable tables and -full / GRAPHFLY_SCALE for larger
// runs. Timings here measure the *whole experiment* (workload generation +
// all engines), so compare figures through cmd/bench output rather than
// ns/op when interpreting results.

import (
	"fmt"
	"testing"

	"repro/internal/algo"
	"repro/internal/dflow"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/layout"
)

// benchScale keeps `go test -bench=.` under a few minutes total.
func benchScale() expr.Scale {
	return expr.Scale{EdgeCap: 20_000, BatchSize: 1_000, Batches: 2}
}

func runFigure(b *testing.B, run func(expr.Scale) expr.Table) {
	b.Helper()
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		t := run(sc)
		if len(t.Cells) == 0 {
			b.Fatalf("%s produced no rows", t.ID)
		}
	}
}

func BenchmarkTable1Datasets(b *testing.B)       { runFigure(b, expr.Table1) }
func BenchmarkFig4aRedundancy(b *testing.B)      { runFigure(b, expr.Fig4a) }
func BenchmarkFig4bFlowCounts(b *testing.B)      { runFigure(b, expr.Fig4b) }
func BenchmarkFig11Overall(b *testing.B)         { runFigure(b, expr.Fig11) }
func BenchmarkFig12MemAccesses(b *testing.B)     { runFigure(b, expr.Fig12) }
func BenchmarkFig13StorageAblation(b *testing.B) { runFigure(b, expr.Fig13) }
func BenchmarkFig14aDeletionRatio(b *testing.B)  { runFigure(b, expr.Fig14a) }
func BenchmarkFig14bBatchSize(b *testing.B)      { runFigure(b, expr.Fig14b) }
func BenchmarkFig15aDtreeGen(b *testing.B)       { runFigure(b, expr.Fig15a) }
func BenchmarkFig15bDtreeMaint(b *testing.B)     { runFigure(b, expr.Fig15b) }
func BenchmarkFig16Distributed(b *testing.B)     { runFigure(b, expr.Fig16) }
func BenchmarkFig17Cores(b *testing.B)           { runFigure(b, expr.Fig17) }

func BenchmarkAblationFlowCap(b *testing.B)  { runFigure(b, expr.AblationFlowCap) }
func BenchmarkAblationAsync(b *testing.B)    { runFigure(b, expr.AblationAsync) }
func BenchmarkAblationTriangle(b *testing.B) { runFigure(b, expr.AblationTriangle) }

// BenchmarkBatchSSSP measures steady-state per-batch cost of the GraphFly
// engine itself (no workload generation in the timed loop).
func BenchmarkBatchSSSP(b *testing.B) {
	numV, edges := Dataset("LJ")
	w := NewWorkload(numV, edges, DefaultStream(2000, 200, 1))
	g := FromEdges(w.NumV, w.Initial)
	eng := NewSSSP(g, 0, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ProcessBatch(w.Batches[i%len(w.Batches)])
	}
}

// BenchmarkBatchPageRank is the accumulative counterpart.
func BenchmarkBatchPageRank(b *testing.B) {
	numV, edges := Dataset("LJ")
	w := NewWorkload(numV, edges, DefaultStream(2000, 200, 2))
	g := FromEdges(w.NumV, w.Initial)
	eng := NewPageRank(g, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ProcessBatch(w.Batches[i%len(w.Batches)])
	}
}

// BenchmarkSchedulerScaling compares steady-state per-batch SSSP cost
// across worker counts; workers=1 is the sequential reference.
// Sub-benchmark names are stable so runs can be diffed; the repository
// benchmark (benchmark/) carries the dispatch, steal and park counts and
// the two-worker speed-up.
func BenchmarkSchedulerScaling(b *testing.B) {
	numV, edges := Dataset("LJ")
	w := NewWorkload(numV, edges, DefaultStream(2000, 200, 3))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			g := FromEdges(w.NumV, w.Initial)
			eng := NewSSSP(g, 0, Config{Workers: workers})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.ProcessBatch(w.Batches[i%len(w.Batches)])
			}
		})
	}
}

// BenchmarkBatchAllocs measures steady-state per-batch heap allocations of
// the GraphFly engine's dense batch path. CC symmetrizes every batch, so
// the loop exercises the retained Symmetrizer alongside the impacted-flow
// set, flow-graph CSR, and hub-index machinery; internal/expr's
// TestFig11AllocBudget gates the same quantity over Fig 11's engine set.
func BenchmarkBatchAllocs(b *testing.B) {
	numV, edges := Dataset("LJ")
	w := NewWorkload(numV, edges, DefaultStream(2000, 200, 4))
	b.Run("dense", func(b *testing.B) {
		g := FromEdges(w.NumV, SymmetrizeEdges(w.Initial))
		eng := NewCC(g, Config{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.ProcessBatch(w.Batches[i%len(w.Batches)])
		}
	})
}

// BenchmarkRepartition times what deriving the flows costs — paid at
// engine construction and restore, and whenever a kernel rebuilds its
// D-trees wholesale, never on a clock — piece by piece, on a skewed RMAT
// graph of about a million edges under its SSSP key-edge forest:
// `partition` derives the flows from the parent array, `migrate` copies a
// value store into the new layout, and `whole` is an empty batch through an
// engine whose RepartitionEvery test lever re-derives the flows on every
// batch (the two pieces, the key-forest sync and an empty unit set).
// Steady-state `migrate` allocates nothing.
func BenchmarkRepartition(b *testing.B) {
	cfg := gen.Config{Kind: gen.RMAT, NumV: 32_000, NumE: 1_500_000, Seed: 14,
		A: 0.60, B: 0.19, C: 0.19, MaxWeight: 8}
	g := FromEdges(cfg.NumV, gen.Generate(cfg))
	_, parent := algo.SolveSelective(g, algo.SSSP{Src: 0})
	part := dflow.NewPartitionFromParents(parent, 0)
	b.Logf("%d vertices, %d edges, %d flows", g.NumVertices(), g.NumEdges(), part.NumFlows())

	b.Run("partition", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			part = dflow.NewPartitionFromParents(parent, 0)
		}
	})
	b.Run("migrate", func(b *testing.B) {
		from := layout.NewFlowStore(dflow.NewPartitionFromParents(parent, 300), 1)
		to := layout.NewFlowStore(part, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			to.CopyFrom(from)
		}
	})
	b.Run("whole", func(b *testing.B) {
		eng := NewSSSP(g, 0, Config{RepartitionEvery: 1})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.ProcessBatch(nil)
		}
	})
}
