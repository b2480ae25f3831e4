package dflow

import (
	"testing"
	"testing/quick"

	"repro/internal/etree"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func chainGraph(n int) *graph.Streaming {
	g := graph.NewStreaming(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), W: 1})
	}
	return g
}

func TestPartitionChainRespectCap(t *testing.T) {
	g := chainGraph(100)
	f := etree.NewForest(g, etree.Forward)
	p := NewPartition(f, 10)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumFlows() != 10 {
		t.Fatalf("NumFlows = %d, want 10", p.NumFlows())
	}
	for fi := int32(0); int(fi) < p.NumFlows(); fi++ {
		if len(p.Members(fi)) > 10 {
			t.Fatalf("flow %d has %d members, cap 10", fi, len(p.Members(fi)))
		}
	}
}

func TestPartitionKeepsHyperTogether(t *testing.T) {
	// 0 -> {1,2,3}: one hyper vertex of size 4, cap 8 keeps it whole.
	g := graph.FromEdges(8, []graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 2, W: 1}, {Src: 0, Dst: 3, W: 1},
		{Src: 5, Dst: 6, W: 1},
	})
	f := etree.NewForest(g, etree.Forward)
	p := NewPartition(f, 8)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	fl := p.Flow(0)
	for _, v := range []graph.VertexID{1, 2, 3} {
		if p.Flow(v) != fl {
			t.Fatalf("hyper member %d in flow %d, want %d", v, p.Flow(v), fl)
		}
	}
	// Small independent trees may share the flow (PROPERTY 1 makes that
	// safe); the inseparability requirement is only on the hyper vertex.
}

func TestPartitionSplitsOversizedHyper(t *testing.T) {
	// Star 0 -> {1..30}: hyper vertex of 31 members, cap 8: must split into
	// ceil(31/8) = 4 sub-flows (paper §V-A sub-flow division).
	edges := []graph.Edge{}
	for i := 1; i <= 30; i++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.VertexID(i), W: 1})
	}
	g := graph.FromEdges(31, edges)
	f := etree.NewForest(g, etree.Forward)
	p := NewPartition(f, 8)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumFlows() != 4 {
		t.Fatalf("NumFlows = %d, want 4", p.NumFlows())
	}
}

// TestPartitionValidateRejectsOverCap: a hand-built partition that is an
// exact bijection but holds one flow past its cap fails Validate; the same
// vertices at a cap that fits pass.
func TestPartitionValidateRejectsOverCap(t *testing.T) {
	p := &Partition{
		FlowOf: []int32{0, 0, 0, 1, 1},
		Flows:  [][]uint32{{0, 1, 2}, {3, 4}},
		Cap:    2,
	}
	if err := p.Validate(); err == nil {
		t.Fatal("a 3-vertex flow under cap 2 passed Validate")
	}
	p.Cap = 3
	if err := p.Validate(); err != nil {
		t.Fatalf("cap 3: %v", err)
	}
}

func TestPartitionDefaultCap(t *testing.T) {
	g := chainGraph(10)
	f := etree.NewForest(g, etree.Forward)
	p := NewPartition(f, 0)
	if p.Cap != DefaultCap {
		t.Fatalf("Cap = %d", p.Cap)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionCoversRealGraph(t *testing.T) {
	cfg := gen.TestDataset(3)
	g := graph.FromEdges(cfg.NumV, gen.Generate(cfg))
	f := etree.NewForest(g, etree.Forward)
	p := NewPartition(f, 64)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumFlows() < 2 {
		t.Fatalf("real graph produced %d flows", p.NumFlows())
	}
}

func TestFlowGraphCrossEdges(t *testing.T) {
	g := chainGraph(4) // flows {0,1} and {2,3} with cap 2
	f := etree.NewForest(g, etree.Forward)
	p := NewPartition(f, 2)
	fg := NewFlowGraph(g, p)
	f01, f23 := p.Flow(0), p.Flow(2)
	if f01 == f23 {
		t.Fatalf("expected two flows, got one (%d)", f01)
	}
	found := false
	fg.OutFlows(f01, func(x int32) { found = found || x == f23 })
	if !found {
		t.Fatal("cross edge 1->2 not indexed")
	}
	if fg.OutDegree(f23) != 0 {
		t.Fatalf("flow %d should have no downstream", f23)
	}
}

func TestFlowGraphIncremental(t *testing.T) {
	g := chainGraph(4)
	f := etree.NewForest(g, etree.Forward)
	p := NewPartition(f, 2)
	fg := NewFlowGraph(g, p)
	fA, fB := p.Flow(0), p.Flow(2)
	// Add a second cross edge, then delete both: the f->g edge must
	// survive the first deletion (refcount) and vanish after the second.
	fg.AddEdge(0, 3)
	fg.DeleteEdge(1, 2)
	deg := fg.OutDegree(fA)
	if deg != 1 {
		t.Fatalf("after one delete, out-degree = %d, want 1", deg)
	}
	fg.DeleteEdge(0, 3)
	if fg.OutDegree(fA) != 0 {
		t.Fatal("flow edge survived both deletions")
	}
	_ = fB
}

func TestFlowGraphIntraFlowIgnored(t *testing.T) {
	g := chainGraph(4)
	f := etree.NewForest(g, etree.Forward)
	p := NewPartition(f, 4)
	fg := NewFlowGraph(g, p)
	for fi := int32(0); int(fi) < fg.NumFlows(); fi++ {
		if fg.OutDegree(fi) != 0 {
			t.Fatalf("intra-flow edges leaked into the flow graph at %d", fi)
		}
	}
}

func TestScheduleLevelsOnLine(t *testing.T) {
	g := chainGraph(6)
	f := etree.NewForest(g, etree.Forward)
	p := NewPartition(f, 2)
	fg := NewFlowGraph(g, p)
	groups := Schedule(fg, []int32{p.Flow(0), p.Flow(2), p.Flow(4)})
	if len(groups) != 3 {
		t.Fatalf("groups = %+v", groups)
	}
	for i, grp := range groups {
		if grp.Level != i {
			t.Fatalf("group %d has level %d: %+v", i, grp.Level, groups)
		}
		if len(grp.Flows) != 1 {
			t.Fatalf("line must not merge flows: %+v", grp)
		}
	}
	if groups[0].Flows[0] != p.Flow(0) || groups[2].Flows[0] != p.Flow(4) {
		t.Fatalf("level order wrong: %+v", groups)
	}
}

func TestScheduleMergesCycles(t *testing.T) {
	// Two flows with edges both ways must merge into one group (§V-A).
	g := graph.NewStreaming(4)
	g.AddEdge(graph.Edge{Src: 0, Dst: 1, W: 1}) // flow A internal
	g.AddEdge(graph.Edge{Src: 2, Dst: 3, W: 1}) // flow B internal
	g.AddEdge(graph.Edge{Src: 1, Dst: 2, W: 1}) // A -> B
	g.AddEdge(graph.Edge{Src: 3, Dst: 0, W: 1}) // B -> A
	f := etree.NewForest(g, etree.Forward)
	p := NewPartition(f, 2)
	fg := NewFlowGraph(g, p)
	fa, fb := p.Flow(0), p.Flow(2)
	if fa == fb {
		t.Skip("partition merged the cycle already; nothing to schedule")
	}
	groups := Schedule(fg, []int32{fa, fb})
	if len(groups) != 1 {
		t.Fatalf("cyclic flows not merged: %+v", groups)
	}
	if len(groups[0].Flows) != 2 {
		t.Fatalf("merged group wrong: %+v", groups[0])
	}
}

func TestScheduleEmpty(t *testing.T) {
	g := chainGraph(2)
	f := etree.NewForest(g, etree.Forward)
	p := NewPartition(f, 2)
	fg := NewFlowGraph(g, p)
	if got := Schedule(fg, nil); got != nil {
		t.Fatalf("Schedule(nil) = %+v", got)
	}
}

func TestTarjanKnownGraph(t *testing.T) {
	// 0->1->2->0 (SCC), 2->3, 3->4, 4->3 (SCC), 5 isolated.
	adj := [][]int32{{1}, {2}, {0, 3}, {4}, {3}, {}}
	comp := tarjanSCC(6, adj)
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatalf("first SCC split: %v", comp)
	}
	if comp[3] != comp[4] {
		t.Fatalf("second SCC split: %v", comp)
	}
	if comp[0] == comp[3] || comp[5] == comp[0] || comp[5] == comp[3] {
		t.Fatalf("distinct SCCs merged: %v", comp)
	}
}

// Property: scheduling levels respect every cross-group dependency edge.
func TestSchedulePropertyTopological(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		cfg := gen.Config{Kind: gen.ER, NumV: 80, NumE: 200, Seed: seed}
		g := graph.FromEdges(cfg.NumV, gen.Generate(cfg))
		f := etree.NewForest(g, etree.Forward)
		p := NewPartition(f, 8)
		if p.Validate() != nil {
			return false
		}
		fg := NewFlowGraph(g, p)
		impacted := map[int32]bool{}
		list := []int32{}
		for i := 0; i < 10; i++ {
			f := p.Flow(graph.VertexID(r.Intn(cfg.NumV)))
			impacted[f] = true
			list = append(list, f) // duplicates on purpose: Schedule dedupes
		}
		groups := Schedule(fg, list)
		levelOf := map[int32]int{}
		groupOf := map[int32]int{}
		for gi, grp := range groups {
			for _, fl := range grp.Flows {
				levelOf[fl] = grp.Level
				groupOf[fl] = gi
			}
		}
		// Each impacted flow appears exactly once.
		if len(levelOf) != len(impacted) {
			return false
		}
		ok := true
		for fl := range impacted {
			fg.OutFlows(fl, func(dn int32) {
				if !impacted[dn] || groupOf[fl] == groupOf[dn] {
					return
				}
				if levelOf[dn] <= levelOf[fl] {
					ok = false
				}
			})
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPartitionBuild(b *testing.B) {
	cfg := gen.TestDataset(1)
	cfg.NumV, cfg.NumE = 20000, 160000
	g := graph.FromEdges(cfg.NumV, gen.Generate(cfg))
	f := etree.NewForest(g, etree.Forward)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewPartition(f, DefaultCap)
	}
}
