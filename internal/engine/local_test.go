package engine

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/graph"
)

// checkLocalAgainstStatic drives the Local engine through a workload and
// asserts bit-exact agreement with from-scratch recomputation after every
// batch. Both local algorithms have unique seeded fixpoints over small
// integers, so equality is exact regardless of worker count or scheduler.
func checkLocalAgainstStatic(t *testing.T, alg algo.Local, cfg Config, w gen.Workload) {
	t.Helper()
	var both []graph.Edge
	for _, e := range w.Initial {
		both = append(both, e, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
	}
	g := graph.FromEdges(w.NumV, both)
	e := NewLocal(g, alg, cfg)

	ref := g.Clone()
	for bi, b := range w.Batches {
		st := e.ProcessBatch(b)
		ref.ApplyBatch(Symmetrize(b))
		want := alg.Solve(ref)
		got := e.Values()
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("%s batch %d: vertex %d = %v, want %v (stats %+v)",
					alg.Name(), bi, v, got[v], want[v], st)
			}
		}
	}
}

func TestLocalTriangleMatchesStatic(t *testing.T) {
	checkLocalAgainstStatic(t, algo.TriangleCount{}, Config{Workers: 4, FlowCap: 64}, smallWorkload(21, 6))
}

func TestLocalKCoreMatchesStatic(t *testing.T) {
	checkLocalAgainstStatic(t, algo.KCore{}, Config{Workers: 4, FlowCap: 64}, smallWorkload(22, 6))
}

func TestLocalSingleWorker(t *testing.T) {
	checkLocalAgainstStatic(t, algo.KCore{}, Config{Workers: 1, FlowCap: 32}, smallWorkload(23, 4))
}

// TestLocalThreeWorkers runs a shard count that is not a power of two.
func TestLocalThreeWorkers(t *testing.T) {
	checkLocalAgainstStatic(t, algo.KCore{}, Config{Workers: 3, FlowCap: 64}, smallWorkload(24, 4))
	checkLocalAgainstStatic(t, algo.TriangleCount{}, Config{Workers: 3, FlowCap: 64}, smallWorkload(25, 4))
}

func TestLocalAblations(t *testing.T) {
	checkLocalAgainstStatic(t, algo.KCore{}, Config{Workers: 4, FlowCap: 64, ScatteredStorage: true}, smallWorkload(27, 3))
}

// Restarting from a published state mid-stream must continue bit-exactly —
// the contract wal.LocalFamily recovery depends on.
func TestLocalFromStateResumes(t *testing.T) {
	w := smallWorkload(29, 6)
	var both []graph.Edge
	for _, e := range w.Initial {
		both = append(both, e, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
	}
	alg := algo.KCore{}
	cfg := Config{Workers: 4, FlowCap: 64}

	g1 := graph.FromEdges(w.NumV, both)
	e1 := NewLocal(g1, alg, cfg)
	for _, b := range w.Batches {
		e1.ProcessBatch(b)
	}

	g2 := graph.FromEdges(w.NumV, both)
	e2 := NewLocal(g2, alg, cfg)
	for _, b := range w.Batches[:3] {
		e2.ProcessBatch(b)
	}
	state := e2.Publish(3).Flat().Vals
	g3 := g2.Clone()
	e3, err := NewLocalFromState(g3, alg, cfg, state)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches[3:] {
		e3.ProcessBatch(b)
	}
	want, got := e1.Values(), e3.Values()
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("vertex %d after resume = %v, want %v", v, got[v], want[v])
		}
	}
	if snap := e3.Publish(9).Flat(); snap.Seq != 9 || len(snap.Vals) != w.NumV || snap.Parent[0] != -1 {
		t.Fatalf("published state malformed: %+v", snap)
	}
}
