package graph

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
)

// referenceEdges is Edges by a full (src, dst) sort of every out-half.
func referenceEdges(g *Streaming) []Edge {
	var es []Edge
	for v, l := range g.out {
		for _, h := range l {
			es = append(es, Edge{Src: VertexID(v), Dst: h.To, W: h.W})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		return es[i].Dst < es[j].Dst
	})
	return es
}

// TestEdgesMatchesReferenceSort: the sorted walk (insertion sort on short
// lists, radix sort above insertionMax) orders every list like a full
// sort, on graphs with hubs past HubThreshold, ids spread over three bytes
// and over one, and lists scrambled by swap-deletes.
func TestEdgesMatchesReferenceSort(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		r := rng.New(seed)
		n := 64 + r.Intn(1<<17)
		if seed%3 == 0 {
			n = 200 // every id in one byte: the radix skips three digits
		}
		g := NewStreaming(n)
		hubs := []VertexID{0, VertexID(r.Intn(n)), VertexID(n - 1)}
		for i := 0; i < 6000; i++ {
			src := VertexID(r.Intn(n))
			if i%2 == 0 {
				src = hubs[r.Intn(len(hubs))]
			}
			if dst := VertexID(r.Intn(n)); dst != src {
				g.AddEdge(Edge{Src: src, Dst: dst, W: r.Weight(8)})
			}
		}
		if g.OutDegree(hubs[0]) <= HubThreshold || g.outIdx[hubs[0]] == nil {
			t.Fatalf("seed %d: hub degree %d carries no index — test lost its teeth", seed, g.OutDegree(hubs[0]))
		}
		for _, e := range referenceEdges(g) {
			if r.Intn(3) == 0 {
				g.DeleteEdge(e.Src, e.Dst)
			}
		}
		got, want := g.Edges(), referenceEdges(g)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d (n=%d): Edges differs from the reference sort", seed, n)
		}
	}
}

// outCopy deep-copies every out-list, in list order.
func outCopy(g *Streaming) [][]Half {
	c := make([][]Half, len(g.out))
	for v, l := range g.out {
		c[v] = slices.Clone(l)
	}
	return c
}

// TestFrozenViewSurvivesParallelChurn is the copy-on-write gate: a reader
// walks a frozen view over and over while ApplyBatchParallel at W = 2/4/8
// adds and deletes around hubs whose index is built and dropped again
// (a 8 / 2 band), and afterwards every list of the view still equals the
// deep copy taken at Freeze. Under -race the concurrent reads also prove
// that no element reachable from the view was written. The live graph must
// meanwhile equal a sequential replay of the same batches.
func TestFrozenViewSurvivesParallelChurn(t *testing.T) {
	const scale = 10
	for _, workers := range []int{2, 4, 8} {
		r := rng.New(uint64(100 + workers))
		opts := Options{HubThreshold: 8, HubDropThreshold: 2}
		g := NewStreamingOpts(1<<scale, opts)
		for g.NumEdges() < 4<<scale {
			if s, d := rmatEdge(r, scale); s != d {
				g.AddEdge(Edge{s, d, r.Weight(8)})
			}
		}
		ref := g.Clone()
		var builds, drops int
		for round := 0; round < 6; round++ {
			ctx := fmt.Sprintf("W=%d round %d", workers, round)
			view := g.Freeze()
			want := outCopy(g)
			wantEdges := g.Edges()
			done := make(chan []Edge)
			go func() {
				var last []Edge
				for i := 0; i < 3; i++ {
					last = last[:0]
					view.SortedSpans(func(src VertexID, span []Half) error {
						for _, h := range span {
							last = append(last, Edge{src, h.To, h.W})
						}
						return nil
					})
				}
				done <- last
			}()
			for k := 0; k < 3; k++ {
				b := rmatBatch(r, scale, 1500)
				if k == 1 { // empty an indexed list: an index drop
					b = append(hubDrain(g, round), b...)
				}
				hadIdx := slices.Clone(g.outIdx)
				g.ApplyBatchParallel(b, workers)
				ref.ApplyBatch(b)
				for v, idx := range g.outIdx {
					if hadIdx[v] == nil && idx != nil {
						builds++
					} else if hadIdx[v] != nil && idx == nil {
						drops++
					}
				}
			}
			if got := <-done; !slices.Equal(got, wantEdges) {
				t.Fatalf("%s: the reader's walk differs from Edges at Freeze", ctx)
			}
			for v := range want {
				if !slices.Equal(view.out[v], want[v]) {
					t.Fatalf("%s: out-list %d of the view was written after Freeze", ctx, v)
				}
			}
			if view.NumEdges() != len(wantEdges) {
				t.Fatalf("%s: view holds %d edges, want %d", ctx, view.NumEdges(), len(wantEdges))
			}
			view.Release()
			if err := g.Validate(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			sameGraph(t, g, ref, ctx)
		}
		if builds == 0 || drops == 0 {
			t.Fatalf("W=%d: %d index builds, %d drops — the churn never crossed the band", workers, builds, drops)
		}
	}
}

// hubDrain deletes every out-edge of the nth-highest vertex whose out-list
// carries an index (high RMAT ids draw few additions, so the drop shows).
func hubDrain(g *Streaming, nth int) Batch {
	var b Batch
	v := VertexID(0)
	for u := len(g.outIdx) - 1; u >= 0; u-- {
		if g.outIdx[u] != nil {
			if v = VertexID(u); nth == 0 {
				break
			}
			nth--
		}
	}
	for _, h := range g.Out(v) {
		b = append(b, Update{Edge: Edge{v, h.To, h.W}, Del: true})
	}
	return b
}

// TestFreezeCopiesOncePerList: with a view live, the first delete from a
// list copies it and later ones reuse the copy; once every view is
// released, deletes write in place again.
func TestFreezeCopiesOncePerList(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {1, 2, 1}})
	backing := func() *Half { return &g.out[0][0] }
	orig := backing()
	v1 := g.Freeze()
	v2 := g.Freeze()
	g.DeleteEdge(0, 1)
	copied := backing()
	if copied == orig {
		t.Fatal("first delete under a live view wrote the shared list")
	}
	g.DeleteEdge(0, 2)
	if backing() != copied {
		t.Fatal("second delete copied the list again")
	}
	v1.Release()
	v1.Release() // harmless
	g.AddEdge(Edge{0, 1, 2})
	if !slices.Equal(v2.out[0], []Half{{1, 1}, {2, 1}, {3, 1}}) {
		t.Fatalf("view changed: %v", v2.out[0])
	}
	v2.Release()
	before := backing()
	g.DeleteEdge(0, 3)
	if backing() != before {
		t.Fatal("delete copied the list with no view live")
	}
}
