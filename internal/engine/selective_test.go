package engine

import (
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/cachesim"
	"repro/internal/gen"
	"repro/internal/graph"
)

// checkAgainstStatic drives an engine through a workload and asserts
// bit-exact agreement with from-scratch static computation after every
// batch — the paper's correctness requirement for incremental processing.
func checkAgainstStatic(t *testing.T, alg algo.Selective, cfg Config, w gen.Workload) {
	t.Helper()
	initial := w.Initial
	if alg.Symmetric() {
		var both []graph.Edge
		for _, e := range initial {
			both = append(both, e, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
		}
		initial = both
	}
	g := graph.FromEdges(w.NumV, initial)
	e := NewSelective(g, alg, cfg)

	// The engine mutates g; the reference graph evolves in lockstep.
	ref := g.Clone()
	for bi, b := range w.Batches {
		st := e.ProcessBatch(b)
		rb := b
		if alg.Symmetric() {
			rb = Symmetrize(b)
		}
		ref.ApplyBatch(rb)
		want, _ := algo.SolveSelective(ref, alg)
		got := e.Values()
		for v := range want {
			if want[v] != got[v] && !(math.IsInf(want[v], 1) && math.IsInf(got[v], 1)) {
				t.Fatalf("%s batch %d: vertex %d = %v, want %v (stats %+v)",
					alg.Name(), bi, v, got[v], want[v], st)
			}
		}
	}
}

func smallWorkload(seed uint64, batches int) gen.Workload {
	cfg := gen.TestDataset(seed)
	edges := gen.Generate(cfg)
	return gen.BuildWorkload(cfg.NumV, edges, gen.StreamConfig{
		InitialFraction: 0.5, DeleteRatio: 0.3, BatchSize: 200,
		NumBatches: batches, Seed: seed + 1,
	})
}

func TestSelectiveSSSPMatchesStatic(t *testing.T) {
	checkAgainstStatic(t, algo.SSSP{Src: 0}, Config{Workers: 4, FlowCap: 64}, smallWorkload(1, 6))
}

func TestSelectiveBFSMatchesStatic(t *testing.T) {
	checkAgainstStatic(t, algo.BFS{Src: 0}, Config{Workers: 4, FlowCap: 64}, smallWorkload(2, 6))
}

func TestSelectiveSSWPMatchesStatic(t *testing.T) {
	checkAgainstStatic(t, algo.SSWP{Src: 0}, Config{Workers: 4, FlowCap: 64}, smallWorkload(3, 6))
}

func TestSelectiveCCMatchesStatic(t *testing.T) {
	checkAgainstStatic(t, algo.CC{}, Config{Workers: 4, FlowCap: 64}, smallWorkload(4, 6))
}

func TestSelectiveSingleWorker(t *testing.T) {
	checkAgainstStatic(t, algo.SSSP{Src: 0}, Config{Workers: 1, FlowCap: 32}, smallWorkload(5, 4))
}

func TestSelectiveTwoPhaseAblation(t *testing.T) {
	checkAgainstStatic(t, algo.SSSP{Src: 0}, Config{Workers: 4, FlowCap: 64, TwoPhase: true}, smallWorkload(6, 4))
}

func TestSelectiveScatteredStorageAblation(t *testing.T) {
	checkAgainstStatic(t, algo.SSSP{Src: 0}, Config{Workers: 4, FlowCap: 64, ScatteredStorage: true}, smallWorkload(8, 4))
}

func TestSelectiveRepartitionEveryBatch(t *testing.T) {
	checkAgainstStatic(t, algo.SSSP{Src: 0}, Config{Workers: 4, FlowCap: 64, RepartitionEvery: 1}, smallWorkload(9, 4))
}

func TestSelectiveProfiledRun(t *testing.T) {
	sim := cachesim.NewSim(cachesim.DefaultConfig())
	checkAgainstStatic(t, algo.SSSP{Src: 0}, Config{Workers: 2, FlowCap: 64, Probe: sim}, smallWorkload(10, 3))
	st := sim.Drain()
	if st.Total() == 0 {
		t.Fatal("profiled run recorded no memory accesses")
	}
	if st.Hits+st.Misses != st.Total() {
		t.Fatalf("probe accounting broken: %+v", st)
	}
}

func TestSelectiveDeletionHeavy(t *testing.T) {
	cfg := gen.TestDataset(11)
	edges := gen.Generate(cfg)
	w := gen.BuildWorkload(cfg.NumV, edges, gen.StreamConfig{
		InitialFraction: 0.7, DeleteRatio: 0.8, BatchSize: 150, NumBatches: 5, Seed: 12,
	})
	checkAgainstStatic(t, algo.SSSP{Src: 0}, Config{Workers: 4, FlowCap: 64}, w)
}

func TestSelectiveStatsPopulated(t *testing.T) {
	w := smallWorkload(13, 1)
	g := graph.FromEdges(w.NumV, w.Initial)
	e := NewSelective(g, algo.SSSP{Src: 0}, Config{Workers: 2, FlowCap: 64})
	st := e.ProcessBatch(w.Batches[0])
	if st.Applied == 0 {
		t.Fatal("no updates applied")
	}
	if st.Total <= 0 {
		t.Fatal("total time not measured")
	}
}

func TestSymmetrize(t *testing.T) {
	b := graph.Batch{
		{Edge: graph.Edge{Src: 1, Dst: 2, W: 3}},
		{Edge: graph.Edge{Src: 2, Dst: 1, W: 3}}, // dup after canonicalization
		{Edge: graph.Edge{Src: 4, Dst: 3, W: 1}, Del: true},
	}
	s := Symmetrize(b)
	if len(s) != 4 {
		t.Fatalf("Symmetrize produced %d updates: %+v", len(s), s)
	}
	// Both directions present for each canonical pair.
	if s[0].Src != 1 || s[1].Src != 2 || !s[2].Del || !s[3].Del {
		t.Fatalf("unexpected symmetrized batch: %+v", s)
	}
}
