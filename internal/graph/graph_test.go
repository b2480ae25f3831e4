package graph

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/rng"
)

func TestAddDeleteBasics(t *testing.T) {
	g := NewStreaming(4)
	if !g.AddEdge(Edge{0, 1, 2.5}) {
		t.Fatal("AddEdge returned false for new edge")
	}
	if g.AddEdge(Edge{0, 1, 9}) {
		t.Fatal("AddEdge inserted a duplicate")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if w, ok := g.HasEdge(0, 1); !ok || w != 2.5 {
		t.Fatalf("HasEdge(0,1) = %v,%v", w, ok)
	}
	if _, ok := g.HasEdge(1, 0); ok {
		t.Fatal("HasEdge(1,0) should be false; edges are directed")
	}
	if w, ok := g.DeleteEdge(0, 1); !ok || w != 2.5 {
		t.Fatalf("DeleteEdge = %v,%v", w, ok)
	}
	if _, ok := g.DeleteEdge(0, 1); ok {
		t.Fatal("DeleteEdge of missing edge returned true")
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d after delete", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDegrees(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1, 1}, {0, 2, 1}, {3, 2, 1}})
	if g.OutDegree(0) != 2 || g.InDegree(2) != 2 || g.OutDegree(4) != 0 {
		t.Fatalf("degree mismatch: out0=%d in2=%d out4=%d",
			g.OutDegree(0), g.InDegree(2), g.OutDegree(4))
	}
}

func TestApplyBatchIdempotence(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 1}})
	applied := g.ApplyBatch(Batch{
		{Edge: Edge{0, 1, 1}, Del: false}, // duplicate add: dropped
		{Edge: Edge{1, 2, 4}, Del: false},
		{Edge: Edge{2, 0, 1}, Del: true}, // missing delete: dropped
		{Edge: Edge{0, 1, 0}, Del: true}, // weight filled from graph
	})
	if len(applied) != 2 {
		t.Fatalf("applied = %d updates, want 2: %+v", len(applied), applied)
	}
	if applied[1].W != 1 {
		t.Fatalf("deletion did not capture original weight: %+v", applied[1])
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVertexRoundTrip(t *testing.T) {
	// Vertex updates are edge updates (§II-A): a vertex is added by its
	// first edges and deleted by deleting every edge incident to it.
	// Adding a vertex then deleting it restores the original graph.
	g := FromEdges(4, []Edge{{Src: 0, Dst: 1, W: 1}})
	before := g.Edges()
	const v VertexID = 3
	g.ApplyBatch(Batch{
		{Edge: Edge{Src: v, Dst: 0, W: 2}},
		{Edge: Edge{Src: 1, Dst: v, W: 3}},
	})
	if g.OutDegree(v) != 1 || g.InDegree(v) != 1 {
		t.Fatalf("vertex %d not added: out=%d in=%d", v, g.OutDegree(v), g.InDegree(v))
	}
	var del Batch
	for _, h := range g.Out(v) {
		del = append(del, Update{Edge: Edge{Src: v, Dst: h.To, W: h.W}, Del: true})
	}
	for _, h := range g.In(v) {
		del = append(del, Update{Edge: Edge{Src: h.To, Dst: v, W: h.W}, Del: true})
	}
	g.ApplyBatch(del)
	after := g.Edges()
	if len(before) != len(after) {
		t.Fatalf("edge sets differ: %v vs %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 1}, {1, 2, 2}})
	c := g.Clone()
	g.DeleteEdge(0, 1)
	if _, ok := c.HasEdge(0, 1); !ok {
		t.Fatal("clone shares storage with original")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesSorted(t *testing.T) {
	g := FromEdges(4, []Edge{{3, 0, 1}, {0, 2, 1}, {0, 1, 1}})
	es := g.Edges()
	want := []Edge{{0, 1, 1}, {0, 2, 1}, {3, 0, 1}}
	if len(es) != len(want) {
		t.Fatalf("Edges() = %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges()[%d] = %v, want %v", i, es[i], want[i])
		}
	}
}

func randomBatch(r *rng.Xoshiro256, n, size int) Batch {
	b := make(Batch, 0, size)
	for i := 0; i < size; i++ {
		src := VertexID(r.Intn(n))
		dst := VertexID(r.Intn(n))
		if src == dst {
			continue
		}
		b = append(b, Update{
			Edge: Edge{Src: src, Dst: dst, W: r.Weight(8)},
			Del:  r.Float64() < 0.3,
		})
	}
	return b
}

func TestParallelMatchesSequential(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 10; trial++ {
		base := NewStreaming(64)
		// 400 updates over 64 vertices repeat many (src,dst) pairs, adds and
		// deletes mixed: each list still sees them in batch order.
		b := randomBatch(r, 64, 400)
		g1 := base.Clone()
		g2 := base.Clone()
		a1 := g1.ApplyBatch(b)
		a2 := g2.ApplyBatchParallel(b, 4)
		if len(a1) != len(a2) {
			t.Fatalf("trial %d: applied counts differ: %d vs %d", trial, len(a1), len(a2))
		}
		if err := g2.Validate(); err != nil {
			t.Fatalf("trial %d: parallel result invalid: %v", trial, err)
		}
		e1, e2 := g1.Edges(), g2.Edges()
		if len(e1) != len(e2) {
			t.Fatalf("trial %d: edge counts differ: %d vs %d", trial, len(e1), len(e2))
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatalf("trial %d: edge %d differs: %v vs %v", trial, i, e1[i], e2[i])
			}
		}
	}
}

func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000} {
		covered := make([]int32, n)
		ParallelFor(n, 4, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, c)
			}
		}
	}
}

// Property: applying a batch then deleting everything it added and re-adding
// everything it deleted restores the original edge set.
func TestBatchInverseProperty(t *testing.T) {
	r := rng.New(7)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		g := NewStreaming(32)
		// Seed graph.
		for i := 0; i < 100; i++ {
			s, d := VertexID(rr.Intn(32)), VertexID(rr.Intn(32))
			if s != d {
				g.AddEdge(Edge{s, d, rr.Weight(4)})
			}
		}
		before := g.Edges()
		applied := g.ApplyBatch(randomBatch(r, 32, 64))
		inverse := make(Batch, 0, len(applied))
		for i := len(applied) - 1; i >= 0; i-- {
			u := applied[i]
			u.Del = !u.Del
			inverse = append(inverse, u)
		}
		g.ApplyBatch(inverse)
		after := g.Edges()
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 1}})
	// Corrupt: remove the in-edge behind the struct's back.
	g.in[1] = nil
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed a dangling out-edge")
	}
	// Broken twins on 0->2 and 1->2, whose in-halves share in[2]; each case
	// leaves every list's contents and every count intact.
	for _, tc := range []struct {
		name    string
		corrupt func(g *Streaming)
	}{
		{"out-half names its neighbour's in-half", func(g *Streaming) { g.out[0][0].twin = 1 }},
		{"in-half names the wrong out-half", func(g *Streaming) { g.in[2][1].twin = 1 }},
		{"in-halves swapped, twins kept", func(g *Streaming) { g.in[2][0], g.in[2][1] = g.in[2][1], g.in[2][0] }},
		{"twin past the list", func(g *Streaming) { g.out[1][0].twin = 2 }},
		{"twin left pending", func(g *Streaming) { g.out[0][0].twin |= pending }},
		{"weights differ across twins", func(g *Streaming) { g.in[2][0].W = 9 }},
	} {
		g := FromEdges(3, []Edge{{0, 2, 1}, {1, 2, 1}})
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: intact graph invalid: %v", tc.name, err)
		}
		tc.corrupt(g)
		if err := g.Validate(); err == nil {
			t.Fatalf("Validate missed a broken twin: %s", tc.name)
		}
	}
}

// TestHalfSize: the twin sits in the padding between To and W, so an
// adjacency list costs what it did before twins (heap_mb has a 10 % bound).
func TestHalfSize(t *testing.T) {
	if s := unsafe.Sizeof(Half{}); s != 16 {
		t.Fatalf("Half is %d bytes, want 16", s)
	}
}

func BenchmarkApplyBatchParallel(b *testing.B) {
	r := rng.New(1)
	g := NewStreaming(1 << 14)
	for i := 0; i < 1<<16; i++ {
		s, d := VertexID(r.Intn(1<<14)), VertexID(r.Intn(1<<14))
		if s != d {
			g.AddEdge(Edge{s, d, 1})
		}
	}
	batch := randomBatch(r, 1<<14, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Clone().ApplyBatchParallel(batch, 0)
	}
}
