package engine

import (
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Targeted scenarios for the trickiest corners of the trimming protocol.

func newSSSPEngine(t *testing.T, n int, edges []graph.Edge, cfg Config) (*Selective, *graph.Streaming) {
	t.Helper()
	g := graph.FromEdges(n, edges)
	return NewSelective(g, algo.SSSP{Src: 0}, cfg), g
}

func assertMatchesStatic(t *testing.T, e *Selective, g *graph.Streaming) {
	t.Helper()
	want, _ := algo.SolveSelective(g, e.Alg)
	got := e.Values()
	for v := range want {
		if want[v] != got[v] && !(math.IsInf(want[v], 1) && math.IsInf(got[v], 1)) {
			t.Fatalf("vertex %d = %v, want %v", v, got[v], want[v])
		}
	}
}

// Deleting the key edge of a long chain trims the whole suffix; a parallel
// longer path must then take over.
func TestScenarioChainTrimWithBackup(t *testing.T) {
	// 0 -1-> 1 -1-> 2 -1-> 3 -1-> 4, plus a backup 0 -10-> 2.
	edges := []graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1},
		{Src: 2, Dst: 3, W: 1}, {Src: 3, Dst: 4, W: 1},
		{Src: 0, Dst: 2, W: 10},
	}
	e, g := newSSSPEngine(t, 5, edges, Config{Workers: 2, FlowCap: 2})
	st := e.ProcessBatch(graph.Batch{{Edge: graph.Edge{Src: 1, Dst: 2, W: 1}, Del: true}})
	if st.Trimmed < 3 {
		t.Fatalf("expected the chain suffix trimmed, got %d", st.Trimmed)
	}
	if e.Value(2) != 10 || e.Value(4) != 12 {
		t.Fatalf("backup path not adopted: %v", e.Values())
	}
	assertMatchesStatic(t, e, g)
}

// Deleting the only path leaves the suffix unreachable (values reset to
// +Inf and stay there).
func TestScenarioUnreachableAfterDeletion(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 3, W: 1},
	}
	e, g := newSSSPEngine(t, 4, edges, Config{Workers: 2, FlowCap: 2})
	e.ProcessBatch(graph.Batch{{Edge: graph.Edge{Src: 1, Dst: 2, W: 1}, Del: true}})
	if !math.IsInf(e.Value(2), 1) || !math.IsInf(e.Value(3), 1) {
		t.Fatalf("unreachable suffix kept values: %v", e.Values())
	}
	assertMatchesStatic(t, e, g)
}

// A deletion and an addition that repairs it in the same batch: the trim
// must not leave stale resets behind.
func TestScenarioDeleteAndRepairSameBatch(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 3, W: 1},
	}
	e, g := newSSSPEngine(t, 4, edges, Config{Workers: 2, FlowCap: 2})
	e.ProcessBatch(graph.Batch{
		{Edge: graph.Edge{Src: 1, Dst: 2, W: 1}, Del: true},
		{Edge: graph.Edge{Src: 0, Dst: 2, W: 1}}, // better repair
	})
	if e.Value(2) != 1 || e.Value(3) != 2 {
		t.Fatalf("repair not adopted: %v", e.Values())
	}
	assertMatchesStatic(t, e, g)
}

// Nested trim roots: deleting two key edges where one target lies in the
// other's subtree must not double-process or miss vertices.
func TestScenarioNestedTrimRoots(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1},
		{Src: 2, Dst: 3, W: 1}, {Src: 3, Dst: 4, W: 1},
	}
	e, g := newSSSPEngine(t, 5, edges, Config{Workers: 2, FlowCap: 2})
	st := e.ProcessBatch(graph.Batch{
		{Edge: graph.Edge{Src: 1, Dst: 2, W: 1}, Del: true}, // trims {2,3,4}
		{Edge: graph.Edge{Src: 3, Dst: 4, W: 1}, Del: true}, // nested in the subtree
	})
	if st.Trimmed != 3 {
		t.Fatalf("trimmed %d vertices, want 3 (no double count)", st.Trimmed)
	}
	assertMatchesStatic(t, e, g)
}

// Deleting a non-key edge must be free: no trimming, no recomputation.
func TestScenarioNonKeyDeletionIsFree(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 1, W: 1},
		{Src: 0, Dst: 2, W: 5}, // non-key: 2's key edge is via 1
		{Src: 1, Dst: 2, W: 1},
	}
	e, g := newSSSPEngine(t, 3, edges, Config{Workers: 2, FlowCap: 2})
	st := e.ProcessBatch(graph.Batch{{Edge: graph.Edge{Src: 0, Dst: 2, W: 5}, Del: true}})
	if st.Trimmed != 0 || st.TrimRoots != 0 {
		t.Fatalf("non-key deletion caused trimming: %+v", st)
	}
	if e.Value(2) != 2 {
		t.Fatalf("value disturbed: %v", e.Value(2))
	}
	assertMatchesStatic(t, e, g)
}

// The source vertex can never be trimmed: deleting an edge INTO the source
// must not disturb it.
func TestScenarioSourceUntrimmable(t *testing.T) {
	edges := []graph.Edge{
		{Src: 1, Dst: 0, W: 1}, {Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1},
	}
	e, g := newSSSPEngine(t, 3, edges, Config{Workers: 2, FlowCap: 2})
	e.ProcessBatch(graph.Batch{{Edge: graph.Edge{Src: 1, Dst: 0, W: 1}, Del: true}})
	if e.Value(0) != 0 {
		t.Fatalf("source disturbed: %v", e.Value(0))
	}
	assertMatchesStatic(t, e, g)
}

// An empty batch is a no-op.
func TestScenarioEmptyBatch(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1, W: 1}}
	e, g := newSSSPEngine(t, 2, edges, Config{Workers: 2})
	st := e.ProcessBatch(nil)
	if st.Applied != 0 || st.Trimmed != 0 {
		t.Fatalf("empty batch did work: %+v", st)
	}
	assertMatchesStatic(t, e, g)
}

// Repeated batches that add and delete the same shortcut flip the value
// back and forth exactly (the graph is simple, so the shortcut uses a
// distinct vertex pair).
func TestScenarioFlipFlop(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 2, W: 4}, {Src: 2, Dst: 1, W: 1},
	}
	e, g := newSSSPEngine(t, 3, edges, Config{Workers: 2, RepartitionEvery: 1})
	short := graph.Edge{Src: 0, Dst: 1, W: 2}
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			e.ProcessBatch(graph.Batch{{Edge: short}})
			if e.Value(1) != 2 {
				t.Fatalf("iter %d: value %v, want 2", i, e.Value(1))
			}
		} else {
			e.ProcessBatch(graph.Batch{{Edge: short, Del: true}})
			if e.Value(1) != 5 {
				t.Fatalf("iter %d: value %v, want 5", i, e.Value(1))
			}
		}
		assertMatchesStatic(t, e, g)
	}
}

// A dense cyclic core (every flow depends on every other): flows that keep
// re-activating each other through messages, end to end.
func TestScenarioCyclicCore(t *testing.T) {
	var edges []graph.Edge
	n := 12
	for i := 0; i < n; i++ {
		edges = append(edges,
			graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % n), W: 1},
			graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 5) % n), W: 3},
		)
	}
	e, g := newSSSPEngine(t, n, edges, Config{Workers: 3, FlowCap: 3})
	e.ProcessBatch(graph.Batch{
		{Edge: graph.Edge{Src: 0, Dst: 1, W: 1}, Del: true},
		{Edge: graph.Edge{Src: 5, Dst: 6, W: 1}, Del: true},
	})
	assertMatchesStatic(t, e, g)
}

// PageRank must survive a vertex losing all its out-edges (becoming
// dangling) and regaining them.
func TestScenarioAccumulativeDangling(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 0, W: 1},
	}
	g := graph.FromEdges(3, edges)
	alg := algo.NewPageRank(3)
	e := NewAccumulative(g, alg, Config{Workers: 2, FlowCap: 2})
	check := func() {
		want := algo.SolveAccumulative(g, alg)
		got := e.Values()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-5 {
				t.Fatalf("component %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
	e.ProcessBatch(graph.Batch{{Edge: graph.Edge{Src: 1, Dst: 2, W: 1}, Del: true}}) // 1 dangles
	check()
	e.ProcessBatch(graph.Batch{{Edge: graph.Edge{Src: 1, Dst: 0, W: 2}}}) // 1 recovers
	check()
}

// Soak: a long stream with heavy churn, frequent repartitioning, and a
// rebuild-triggering deletion rate — the engine must track static
// recomputation across dozens of batches.
func TestScenarioSoakLongStream(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	cfg := gen.TestDataset(99)
	cfg.NumV, cfg.NumE = 400, 3000
	edges := gen.Generate(cfg)
	w := gen.BuildWorkload(cfg.NumV, edges, gen.StreamConfig{
		InitialFraction: 0.4, DeleteRatio: 0.45, BatchSize: 120,
		NumBatches: 30, Seed: 100,
	})
	g := graph.FromEdges(w.NumV, w.Initial)
	alg := algo.SSSP{Src: 0}
	e := NewSelective(g, alg, Config{Workers: 4, FlowCap: 48, RepartitionEvery: 2})
	ref := g.Clone()
	for bi, b := range w.Batches {
		e.ProcessBatch(b)
		ref.ApplyBatch(b)
		want, _ := algo.SolveSelective(ref, alg)
		got := e.Values()
		for v := range want {
			if want[v] != got[v] && !(math.IsInf(want[v], 1) && math.IsInf(got[v], 1)) {
				t.Fatalf("soak batch %d: vertex %d = %v, want %v", bi, v, got[v], want[v])
			}
		}
	}
	// The engine's own graph must still be structurally sound.
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Accumulative soak with forest-rebuild churn.
func TestScenarioSoakAccumulative(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	cfg := gen.TestDataset(101)
	cfg.NumV, cfg.NumE = 200, 1400
	edges := gen.Generate(cfg)
	w := gen.BuildWorkload(cfg.NumV, edges, gen.StreamConfig{
		InitialFraction: 0.4, DeleteRatio: 0.5, BatchSize: 80,
		NumBatches: 15, Seed: 102,
	})
	g := graph.FromEdges(w.NumV, w.Initial)
	alg := algo.NewPageRank(w.NumV)
	e := NewAccumulative(g, alg, Config{Workers: 4, FlowCap: 32, RepartitionEvery: 2})
	ref := g.Clone()
	for bi, b := range w.Batches {
		e.ProcessBatch(b)
		ref.ApplyBatch(b)
		want := algo.SolveAccumulative(ref, alg)
		got := e.Values()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-5 {
				t.Fatalf("soak batch %d: component %d = %v, want %v", bi, i, got[i], want[i])
			}
		}
	}
}
