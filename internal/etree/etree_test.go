package etree

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestUnionFindBasics(t *testing.T) {
	u := NewUnionFind(6)
	if u.NumSets() != 6 || u.Len() != 6 {
		t.Fatalf("fresh union-find wrong: sets=%d len=%d", u.NumSets(), u.Len())
	}
	if _, merged := u.Union(0, 1); !merged {
		t.Fatal("first union did not merge")
	}
	if _, merged := u.Union(1, 0); merged {
		t.Fatal("repeated union merged again")
	}
	u.Union(2, 3)
	u.Union(0, 3)
	if !u.Same(1, 2) {
		t.Fatal("transitive union broken")
	}
	if u.SetSize(1) != 4 {
		t.Fatalf("SetSize = %d, want 4", u.SetSize(1))
	}
	if u.NumSets() != 3 {
		t.Fatalf("NumSets = %d, want 3", u.NumSets())
	}
	u.Reset()
	if u.NumSets() != 6 || u.Same(0, 1) {
		t.Fatal("Reset incomplete")
	}
}

// Paper Fig 6: lower triangular matrix whose directed graph has edges
// 0->2, 1->2, 2->3, 1->4, 3->5, 4->5 (vertex i depends on larger j).
// The elimination tree should be 0->2->3->5 and 1->2, 4->5.
func TestEliminationTreeFig6(t *testing.T) {
	edges := [][2]uint32{{0, 2}, {1, 2}, {2, 3}, {1, 4}, {3, 5}, {4, 5}}
	parent := EliminationTree(6, edges)
	want := []int32{2, 2, 3, 5, 5, -1}
	for v, p := range parent {
		if p != want[v] {
			t.Fatalf("parent[%d] = %d, want %d (full: %v)", v, p, want[v], parent)
		}
	}
}

// Fig 6(d): deleting 1->2 makes the plain elimination tree lose the 1~2
// dependency (they land in disjoint subtrees even though 1 reaches 2's
// subtree via 4->5). This is the deficiency D-trees repair.
func TestEliminationTreeLosesDependencyWithoutCondition1(t *testing.T) {
	edges := [][2]uint32{{0, 2}, {2, 3}, {1, 4}, {3, 5}, {4, 5}}
	parent := EliminationTree(6, edges)
	if parent[1] != 4 {
		t.Fatalf("parent[1] = %d, want 4", parent[1])
	}
	if parent[0] != 2 {
		t.Fatalf("parent[0] = %d, want 2", parent[0])
	}
	sets := SubtreeSets(parent)
	if len(sets) != 1 {
		// 5 is the only root; both chains meet at 5.
		t.Fatalf("expected a single tree rooted at 5, got %v", sets)
	}
}

func TestSubtreeSets(t *testing.T) {
	parent := []int32{2, 2, -1, 4, -1}
	sets := SubtreeSets(parent)
	if len(sets) != 2 {
		t.Fatalf("want 2 trees, got %v", sets)
	}
	if got := sets[2]; len(got) != 3 {
		t.Fatalf("tree at 2 = %v", got)
	}
	if got := sets[4]; len(got) != 2 {
		t.Fatalf("tree at 4 = %v", got)
	}
}

func TestDirectionCovers(t *testing.T) {
	if !Forward.Covers(1, 2) || Forward.Covers(2, 1) || Forward.Covers(3, 3) {
		t.Fatal("Forward.Covers wrong")
	}
	if !Backward.Covers(2, 1) || Backward.Covers(1, 2) || Backward.Covers(3, 3) {
		t.Fatal("Backward.Covers wrong")
	}
}

func TestForestSingleChain(t *testing.T) {
	// 0->1->2->3: every vertex has one forward neighbour: a pure
	// elimination tree, no hyper vertices.
	g := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 3, W: 1}})
	f := NewForest(g, Forward)
	for v := uint32(0); v < 3; v++ {
		if f.Link(v) != int32(v+1) {
			t.Fatalf("link[%d] = %d", v, f.Link(v))
		}
		if f.TriDegree(v) != 1 {
			t.Fatalf("fdeg[%d] = %d", v, f.TriDegree(v))
		}
	}
	st := f.ComputeStats()
	if st.HyperVertices != 0 {
		t.Fatalf("chain created hyper vertices: %+v", st)
	}
	if st.Trees != 4 {
		// Each vertex is its own hyper node; roots = nodes with no
		// outgoing link to a different hyper node. Only 3 has none, but
		// singleton hyper nodes 0,1,2 have links, so Trees counts reps
		// without parents: only vertex 3.
		if st.Trees != 1 {
			t.Fatalf("Trees = %d, want 1: %+v", st.Trees, st)
		}
	}
}

func TestForestHyperMerge(t *testing.T) {
	// 0 -> {1, 2}: out-degree 2 in the forward triangle, so 0, 1, 2 merge
	// into one hyper vertex (Algorithm 1 lines 5-6).
	g := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 2, W: 1}})
	f := NewForest(g, Forward)
	if !f.SameHyper(0, 1) || !f.SameHyper(0, 2) {
		t.Fatal("hyper merge missing")
	}
	if f.HyperSize(0) != 3 {
		t.Fatalf("hyper size = %d", f.HyperSize(0))
	}
	st := f.ComputeStats()
	if st.HyperVertices != 1 || st.MaxHyperSize != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestForestBackwardTriangle(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{Src: 2, Dst: 0, W: 1}, {Src: 2, Dst: 1, W: 1}})
	fw := NewForest(g, Forward)
	bw := NewForest(g, Backward)
	if fw.TriDegree(2) != 0 {
		t.Fatal("forward forest saw backward edges")
	}
	if bw.TriDegree(2) != 2 {
		t.Fatal("backward forest missed its edges")
	}
	if !bw.SameHyper(2, 0) || !bw.SameHyper(2, 1) {
		t.Fatal("backward hyper merge missing")
	}
}

func TestForestIncrementalAddMatchesRebuild(t *testing.T) {
	r := rng.New(42)
	g := graph.NewStreaming(64)
	f := NewForest(g, Forward)
	for i := 0; i < 500; i++ {
		u := graph.VertexID(r.Intn(64))
		v := graph.VertexID(r.Intn(64))
		if u == v {
			continue
		}
		if g.AddEdge(graph.Edge{Src: u, Dst: v, W: 1}) {
			f.AddEdge(u, v)
		}
	}
	fresh := NewForest(g, Forward)
	for v := graph.VertexID(0); v < 64; v++ {
		if f.Link(v) != fresh.Link(v) {
			t.Fatalf("link[%d]: incremental %d, rebuild %d", v, f.Link(v), fresh.Link(v))
		}
		if f.TriDegree(v) != fresh.TriDegree(v) {
			t.Fatalf("fdeg[%d]: incremental %d, rebuild %d", v, f.TriDegree(v), fresh.TriDegree(v))
		}
	}
	// Incremental merging must be at least as coarse as a fresh build
	// (never finer): every fresh hyper pair is merged incrementally too.
	for u := graph.VertexID(0); u < 64; u++ {
		for v := graph.VertexID(0); v < 64; v++ {
			if fresh.SameHyper(u, v) && !f.SameHyper(u, v) {
				t.Fatalf("fresh merges %d,%d but incremental does not", u, v)
			}
		}
	}
}

func TestForestDeletionLinkRecompute(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 3, W: 1}})
	f := NewForest(g, Forward)
	if f.Link(0) != 1 {
		t.Fatalf("link[0] = %d", f.Link(0))
	}
	g.DeleteEdge(0, 1)
	f.DeleteEdge(g, 0, 1)
	if f.Link(0) != 3 {
		t.Fatalf("after delete, link[0] = %d, want 3", f.Link(0))
	}
	if f.TriDegree(0) != 1 {
		t.Fatalf("fdeg[0] = %d", f.TriDegree(0))
	}
	if f.DirtyDeletions() == 0 {
		t.Fatal("deletion inside a hyper vertex should mark dirty")
	}
}

func TestForestRebuildIfDirty(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 2, W: 1}, {Src: 0, Dst: 3, W: 1}})
	f := NewForest(g, Forward)
	if f.HyperSize(0) != 4 {
		t.Fatalf("hyper size = %d", f.HyperSize(0))
	}
	// Delete two of the three fan-out edges: out-degree drops to 1 and a
	// fresh build would not merge anything.
	g.DeleteEdge(0, 1)
	f.DeleteEdge(g, 0, 1)
	g.DeleteEdge(0, 2)
	f.DeleteEdge(g, 0, 2)
	if !f.RebuildIfDirty(g, 0.1) {
		t.Fatal("rebuild should trigger at 10% dirty threshold")
	}
	if f.HyperSize(0) != 1 {
		t.Fatalf("after rebuild hyper size = %d, want 1", f.HyperSize(0))
	}
	if f.RebuildIfDirty(g, 0.1) {
		t.Fatal("rebuild should be idempotent on a clean forest")
	}
}

func TestForestOnRealTopology(t *testing.T) {
	cfg := gen.TestDataset(77)
	edges := gen.Generate(cfg)
	g := graph.FromEdges(cfg.NumV, edges)
	f := NewForest(g, Forward)
	st := f.ComputeStats()
	if st.Trees <= 0 {
		t.Fatalf("no trees extracted: %+v", st)
	}
	if st.MaxHyperSize <= 1 {
		t.Fatalf("RMAT graph should create hyper vertices: %+v", st)
	}
	// Every vertex with triangular out-degree >= 2 is in a hyper vertex
	// with all its forward out-neighbours (Algorithm 1 invariant).
	for v := graph.VertexID(0); int(v) < cfg.NumV; v++ {
		if f.TriDegree(v) < 2 {
			continue
		}
		for _, h := range g.Out(v) {
			if Forward.Covers(v, h.To) && !f.SameHyper(v, h.To) {
				t.Fatalf("vertex %d (deg %d) not merged with neighbour %d", v, f.TriDegree(v), h.To)
			}
		}
	}
}

func TestKeyForestBasics(t *testing.T) {
	f := NewKeyForest(6)
	f.SetParent(1, 0)
	f.SetParent(2, 0)
	f.SetParent(3, 1)
	f.SetParent(4, 1)
	f.SetParent(5, 4)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.SubtreeSize(0) != 6 {
		t.Fatalf("subtree(0) = %d", f.SubtreeSize(0))
	}
	if f.SubtreeSize(1) != 4 {
		t.Fatalf("subtree(1) = %d", f.SubtreeSize(1))
	}
	// Rewire 4 from 1 to 2; subtree sizes shift.
	f.SetParent(4, 2)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.SubtreeSize(1) != 2 || f.SubtreeSize(2) != 3 {
		t.Fatalf("after rewire: |sub(1)|=%d |sub(2)|=%d", f.SubtreeSize(1), f.SubtreeSize(2))
	}
	f.SetParent(4, -1)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.Parent(4) != -1 || f.SubtreeSize(4) != 2 {
		t.Fatal("detach failed")
	}
}

func TestKeyForestSubtreePrune(t *testing.T) {
	f := NewKeyForest(5)
	f.SetParent(1, 0)
	f.SetParent(2, 1)
	f.SetParent(3, 2)
	visited := []uint32{}
	f.Subtree(0, func(v uint32) bool {
		visited = append(visited, v)
		return v != 1 // prune below 1
	})
	if len(visited) != 2 {
		t.Fatalf("pruned traversal visited %v", visited)
	}
}

func TestKeyForestDetachAll(t *testing.T) {
	f := NewKeyForest(4)
	f.SetParent(1, 0)
	f.SetParent(2, 1)
	f.DetachAll()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < 4; v++ {
		if f.Parent(v) != -1 || f.NumChildren(v) != 0 {
			t.Fatalf("DetachAll left state at %d", v)
		}
	}
}

// Property: random SetParent sequences that respect "parent has smaller id"
// (hence acyclic) always keep the children index consistent.
func TestKeyForestPropertyConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		kf := NewKeyForest(32)
		for i := 0; i < 200; i++ {
			v := uint32(1 + r.Intn(31))
			var p int32
			if r.Float64() < 0.2 {
				p = -1
			} else {
				p = int32(r.Intn(int(v)))
			}
			kf.SetParent(v, p)
		}
		return kf.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestKeyForestSyncMatchesBulkLoad runs a chain of random acyclic parent
// arrays through Sync — each a few re-parented, detached or attached
// vertices away from the last, the shape of a batch, plus an occasional
// wholesale redraw — and checks after each that the forest is valid and
// every child set equals the one a fresh BulkLoad builds.
func TestKeyForestSyncMatchesBulkLoad(t *testing.T) {
	const n = 300
	r := rng.New(41)
	// order is a random topological order: a parent always precedes its
	// child in it, so every array drawn below is acyclic.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	rank := make([]int, n)
	for i, v := range order {
		rank[v] = i
	}
	draw := func(v int) int32 {
		if rank[v] == 0 || r.Float64() < 0.15 {
			return -1
		}
		return int32(order[r.Intn(rank[v])])
	}
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = draw(v)
	}
	kf := NewKeyForest(n)
	for step := 0; step < 200; step++ {
		if step%50 == 49 {
			for v := range parent {
				parent[v] = draw(v)
			}
		} else {
			for k := r.Intn(20); k >= 0; k-- {
				v := r.Intn(n)
				parent[v] = draw(v)
			}
		}
		kf.Sync(parent)
		if err := kf.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ref := NewKeyForest(n)
		ref.BulkLoad(parent)
		for v := range parent {
			got, want := slices.Clone(kf.children[v]), slices.Clone(ref.children[v])
			slices.Sort(got)
			slices.Sort(want)
			if kf.Parent(uint32(v)) != parent[v] || !slices.Equal(got, want) {
				t.Fatalf("step %d: vertex %d: parent %d children %v, bulk load parent %d children %v",
					step, v, kf.Parent(uint32(v)), got, parent[v], want)
			}
		}
	}
}

func BenchmarkForestBuild(b *testing.B) {
	cfg := gen.TestDataset(1)
	cfg.NumV, cfg.NumE = 10000, 80000
	g := graph.FromEdges(cfg.NumV, gen.Generate(cfg))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewForest(g, Forward)
	}
}

func BenchmarkForestAddEdge(b *testing.B) {
	g := graph.NewStreaming(1 << 16)
	f := NewForest(g, Forward)
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.VertexID(r.Intn(1 << 16))
		v := graph.VertexID(r.Intn(1 << 16))
		if u != v {
			f.AddEdge(u, v)
		}
	}
}
