package engine

import (
	"math"
	"slices"
	"testing"

	"repro/internal/algo"
	"repro/internal/dflow"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestMemberOwningEveryFlowMatchesLibrary: a cluster member that runs every
// flow is the library engine. At one worker, over the same stream, it
// matches NewSelective bit for bit in values, parents and relaxations. The
// library re-derives its flows every batch (RepartitionEvery 1), after its
// D-tree upkeep and before its trim, as a member does every attempt.
func TestMemberOwningEveryFlowMatchesLibrary(t *testing.T) {
	for _, alg := range []algo.Selective{algo.SSSP{Src: 0}, algo.SSWP{Src: 0}, algo.CC{}} {
		t.Run(alg.Name(), func(t *testing.T) {
			cfg := gen.TestDataset(61)
			cfg.NumV, cfg.NumE = 400, 3000
			w := gen.BuildWorkload(cfg.NumV, gen.Generate(cfg), gen.StreamConfig{
				InitialFraction: 0.6, DeleteRatio: 0.4, BatchSize: 120, NumBatches: 6, Seed: 62,
			})
			initial := w.Initial
			if alg.Symmetric() {
				initial = mirrored(initial)
			}
			lib := NewSelective(graph.FromEdges(w.NumV, initial), alg,
				Config{Workers: 1, FlowCap: 32, RepartitionEvery: 1})
			vals, parent := lib.SnapshotState()
			mem, err := NewSelectiveFromState(graph.FromEdges(w.NumV, initial), alg,
				Config{Workers: 1, FlowCap: 32}, vals, parent)
			if err != nil {
				t.Fatal(err)
			}
			trimmed := 0
			for bi, b := range w.Batches {
				st := lib.ProcessBatch(b)
				trimmed += st.Trimmed
				if alg.Symmetric() {
					b = Symmetrize(b)
				}
				applied := mem.G.ApplyBatch(b)
				// The assignment the coordinator would send: every flow to member 0.
				assign := make([]int32, dflow.NewPartitionFromParents(mem.parent, 32).NumFlows())
				before := mem.counts.relaxations
				recs, err := mem.Start(applied, 0, assign)
				if err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
				if got := mem.counts.relaxations - before; got != st.Relaxations {
					t.Fatalf("batch %d: member relaxed %d edges, library %d", bi, got, st.Relaxations)
				}
				for _, r := range recs {
					if !r.Shadow {
						t.Fatalf("batch %d: a member that runs every flow shipped candidate %+v", bi, r)
					}
				}
				lv, lp := lib.SnapshotState()
				mv, mp := mem.SnapshotState()
				for v := range lv {
					if math.Float64bits(lv[v]) != math.Float64bits(mv[v]) {
						t.Fatalf("batch %d: vertex %d = %v, library %v", bi, v, mv[v], lv[v])
					}
				}
				if !slices.Equal(lp, mp) {
					t.Fatalf("batch %d: member parents differ from the library's", bi)
				}
			}
			if trimmed == 0 {
				t.Fatal("the stream trimmed nothing: the trim path was not compared")
			}
		})
	}
}
