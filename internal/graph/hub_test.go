package graph

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/rng"
)

// hubBatch samples a batch where hubFrac of the updates have vertex 0 as
// their source — the adversarial skew for the adjacency index.
func hubBatch(r *rng.Xoshiro256, n, size int, hubFrac float64) Batch {
	b := make(Batch, 0, size)
	for i := 0; i < size; i++ {
		src := VertexID(r.Intn(n))
		if r.Float64() < hubFrac {
			src = 0
		}
		dst := VertexID(r.Intn(n))
		if src == dst {
			continue
		}
		b = append(b, Update{
			Edge: Edge{Src: src, Dst: dst, W: r.Weight(8)},
			Del:  r.Float64() < 0.4,
		})
	}
	return b
}

// rmatEdge samples one RMAT edge over 2^scale vertices with the canonical
// (0.57, 0.19, 0.19, 0.05) quadrant probabilities.
func rmatEdge(r *rng.Xoshiro256, scale int) (VertexID, VertexID) {
	var src, dst VertexID
	for level := 0; level < scale; level++ {
		p := r.Float64()
		var sBit, dBit VertexID
		switch {
		case p < 0.57:
		case p < 0.76:
			dBit = 1
		case p < 0.95:
			sBit = 1
		default:
			sBit, dBit = 1, 1
		}
		src = src<<1 | sBit
		dst = dst<<1 | dBit
	}
	return src, dst
}

// TestHubIndexedMatchesScan asserts the tentpole equivalence: the
// hub-indexed adjacency and the pure scan-based adjacency produce identical
// Edges() output (and identical applied sub-batches) on random update
// streams, including heavily hub-skewed ones.
func TestHubIndexedMatchesScan(t *testing.T) {
	const nv = 4 * HubThreshold
	for _, hubFrac := range []float64{0, 0.5, 0.95} {
		r := rng.New(uint64(1000 + int(hubFrac*100)))
		idxed := NewStreaming(nv)
		scan := NewStreaming(nv)
		scan.DisableHubIndex()
		for round := 0; round < 30; round++ {
			b := hubBatch(r, nv, 300, hubFrac)
			a1 := idxed.ApplyBatch(b)
			a2 := scan.ApplyBatch(b)
			if len(a1) != len(a2) {
				t.Fatalf("hubFrac %v round %d: applied %d vs %d", hubFrac, round, len(a1), len(a2))
			}
			for i := range a1 {
				if a1[i] != a2[i] {
					t.Fatalf("hubFrac %v round %d: applied[%d] %v vs %v", hubFrac, round, i, a1[i], a2[i])
				}
			}
			if err := idxed.Validate(); err != nil {
				t.Fatalf("hubFrac %v round %d: indexed graph invalid: %v", hubFrac, round, err)
			}
			if err := scan.Validate(); err != nil {
				t.Fatalf("hubFrac %v round %d: scan graph invalid: %v", hubFrac, round, err)
			}
			e1, e2 := idxed.Edges(), scan.Edges()
			if len(e1) != len(e2) {
				t.Fatalf("hubFrac %v round %d: %d vs %d edges", hubFrac, round, len(e1), len(e2))
			}
			for i := range e1 {
				if e1[i] != e2[i] {
					t.Fatalf("hubFrac %v round %d: edge %d: %v vs %v", hubFrac, round, i, e1[i], e2[i])
				}
			}
		}
		if idxed.outIdx[0] == nil && hubFrac > 0.4 {
			t.Fatalf("hubFrac %v: vertex 0 never became a hub — test lost its teeth", hubFrac)
		}
	}
}

// TestHubIndexBuildDropHysteresis pins the build/drop thresholds: the index
// appears at HubThreshold and is discarded only below HubThreshold/4.
func TestHubIndexBuildDropHysteresis(t *testing.T) {
	n := HubThreshold * 2
	g := NewStreaming(n + 1)
	for d := 1; d <= HubThreshold-1; d++ {
		g.AddEdge(Edge{0, VertexID(d), 1})
	}
	if g.outIdx[0] != nil {
		t.Fatalf("index built at degree %d, threshold is %d", g.OutDegree(0), HubThreshold)
	}
	g.AddEdge(Edge{0, VertexID(HubThreshold), 1})
	if g.outIdx[0] == nil {
		t.Fatal("index not built at threshold")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Shrink back down: the index must survive until hubDropThreshold.
	for d := HubThreshold; d > hubDropThreshold; d-- {
		g.DeleteEdge(0, VertexID(d))
	}
	if g.outIdx[0] == nil {
		t.Fatalf("index dropped early at degree %d (floor %d)", g.OutDegree(0), hubDropThreshold)
	}
	g.DeleteEdge(0, VertexID(hubDropThreshold))
	if g.outIdx[0] != nil {
		t.Fatalf("index kept at degree %d, floor %d", g.OutDegree(0), hubDropThreshold)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// In-direction symmetry: many sources pointing at one sink.
	h := NewStreaming(n + 1)
	for s := 1; s <= HubThreshold; s++ {
		h.AddEdge(Edge{VertexID(s), 0, 1})
	}
	if h.inIdx[0] == nil {
		t.Fatal("in-index not built at threshold")
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

// rmatBatch samples size RMAT-shaped updates over 2^scale vertices: about
// a quarter deletions, some of an edge added earlier in the same batch, and
// additions of which some repeat an earlier pair with another weight.
func rmatBatch(r *rng.Xoshiro256, scale, size int) Batch {
	b := make(Batch, 0, size)
	for len(b) < size {
		s, d := rmatEdge(r, scale)
		if s == d {
			continue
		}
		u := Update{Edge: Edge{Src: s, Dst: d, W: r.Weight(8)}, Del: r.Float64() < 0.25}
		if len(b) > 0 && r.Float64() < 0.15 {
			prev := b[r.Intn(len(b))]
			u.Src, u.Dst = prev.Src, prev.Dst
		}
		b = append(b, u)
	}
	return b
}

// sameGraph asserts a and b hold byte-identical adjacency: every out- and
// in-list equal entry by entry, in order.
func sameGraph(t *testing.T, a, b *Streaming, ctx string) {
	t.Helper()
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: %d vs %d edges", ctx, a.NumEdges(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		for dir, pair := range [2][2][]Half{{a.out[v], b.out[v]}, {a.in[v], b.in[v]}} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("%s: vertex %d dir %d: %d vs %d halves", ctx, v, dir, len(pair[0]), len(pair[1]))
			}
			for i := range pair[0] {
				if pair[0][i] != pair[1][i] {
					t.Fatalf("%s: vertex %d dir %d half %d: %v vs %v", ctx, v, dir, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
}

// TestHubParallelMatchesSequential runs hub-skewed and RMAT-shaped batches
// through both batch paths at several worker counts; the parallel path
// maintains the same indexes shard-locally, and its result and adjacency
// must equal ApplyBatch's byte for byte — duplicate additions and deletions
// of edges the same batch added included.
func TestHubParallelMatchesSequential(t *testing.T) {
	r := rng.New(31)
	star := NewStreaming(96)
	for i := 0; i < 600; i++ {
		d := VertexID(r.Intn(96))
		if d != 0 {
			star.AddEdge(Edge{0, d, r.Weight(4)})
		}
	}
	const scale = 10
	rmat := NewStreaming(1 << scale)
	for rmat.NumEdges() < 6<<scale {
		if s, d := rmatEdge(r, scale); s != d {
			rmat.AddEdge(Edge{s, d, r.Weight(8)})
		}
	}
	if rmat.outIdx[0] == nil || rmat.inIdx[0] == nil {
		t.Fatal("RMAT base graph has no hubs — test lost its teeth")
	}
	for _, tc := range []struct {
		name  string
		base  *Streaming
		batch func() Batch
	}{
		{"star", star, func() Batch { return hubBatch(r, 96, 500, 0.8) }},
		{"rmat", rmat, func() Batch { return rmatBatch(r, scale, 2000) }},
	} {
		for _, workers := range []int{2, 3, 4, 8} {
			g1, g2 := tc.base.Clone(), tc.base.Clone()
			for trial := 0; trial < 4; trial++ {
				ctx := fmt.Sprintf("%s workers %d trial %d", tc.name, workers, trial)
				b := tc.batch()
				a1 := g1.ApplyBatch(b)
				a2 := g2.ApplyBatchParallel(b, workers)
				if len(a1) != len(a2) {
					t.Fatalf("%s: applied %d vs %d", ctx, len(a1), len(a2))
				}
				for i := range a1 {
					if a1[i] != a2[i] {
						t.Fatalf("%s: applied[%d] %v vs %v", ctx, i, a1[i], a2[i])
					}
				}
				if err := g2.Validate(); err != nil {
					t.Fatalf("%s: parallel graph invalid: %v", ctx, err)
				}
				sameGraph(t, g1, g2, ctx)
			}
		}
	}
}

// TestShardBalanceRMAT: hashed sharding splits RMAT ids evenly, where
// v % 2 hands one of two workers about 3/4 of the sources and destinations
// (an RMAT id sets its low bit with probability c+d = 0.24 only).
func TestShardBalanceRMAT(t *testing.T) {
	r := rng.New(17)
	const n = 5000
	var hashed, modulo [2][2]int // [src/dst][worker]
	for i := 0; i < n; i++ {
		s, d := rmatEdge(r, 17)
		for k, v := range [2]VertexID{s, d} {
			hashed[k][shardOf(v, 2)]++
			modulo[k][v%2]++
		}
	}
	for k, dir := range []string{"src", "dst"} {
		if m := max(modulo[k][0], modulo[k][1]); m*10 <= 6*n {
			t.Fatalf("%s: v %% 2 gives the busier worker only %d of %d — test lost its teeth", dir, m, n)
		}
		if m := max(hashed[k][0], hashed[k][1]); m*10 > 6*n {
			t.Fatalf("%s: hashed shards give one worker %d of %d updates (> 60%%)", dir, m, n)
		}
	}
}

// TestApplyBatchParallelNoopAllocs: once warmed up, a batch whose every
// update is a no-op (additions of present edges, deletions of absent ones)
// allocates nothing but the go statement of each helper worker — the
// bucketing scratch is retained on the graph, and an empty applied slice
// costs nothing.
func TestApplyBatchParallelNoopAllocs(t *testing.T) {
	r := rng.New(3)
	const scale = 10
	g := NewStreaming(1 << scale)
	var b Batch
	for len(b) < 800 {
		if s, d := rmatEdge(r, scale); s != d && g.AddEdge(Edge{s, d, 1}) {
			b = append(b, Update{Edge: Edge{s, d, 1}})
		}
	}
	for len(b) < 1000 {
		s, d := VertexID(r.Intn(1<<scale)), VertexID(r.Intn(1<<scale))
		if _, ok := g.HasEdge(s, d); !ok {
			b = append(b, Update{Edge: Edge{s, d, 1}, Del: true})
		}
	}
	for _, workers := range []int{2, 4} {
		g.ApplyBatchParallel(b, workers)
		allocs := testing.AllocsPerRun(20, func() {
			if a := g.ApplyBatchParallel(b, workers); len(a) != 0 {
				t.Fatalf("no-op batch applied %d updates", len(a))
			}
		})
		if allocs > float64(workers-1) {
			t.Fatalf("workers %d: %v allocs per no-op batch, want at most %d (one per helper goroutine)",
				workers, allocs, workers-1)
		}
	}
}

// TestCloneCopiesHubIndex: mutating a clone's hub must not corrupt the
// original's index (and vice versa).
func TestCloneCopiesHubIndex(t *testing.T) {
	g := NewStreaming(HubThreshold * 3)
	for d := 1; d <= HubThreshold+5; d++ {
		g.AddEdge(Edge{0, VertexID(d), 1})
	}
	c := g.Clone()
	if c.outIdx[0] == nil {
		t.Fatal("clone lost the hub index")
	}
	c.DeleteEdge(0, 1)
	if _, ok := g.HasEdge(0, 1); !ok {
		t.Fatal("clone shares index state with original")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// FuzzHubAdjacency drives AddEdge/DeleteEdge/HasEdge from an op tape
// against a map oracle, validating index integrity after every step burst.
// The hub band is lowered to 4 / 1 so the 32-vertex lists build, grow and
// drop their indexes.
func FuzzHubAdjacency(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x80, 0x01, 0x00, 0x41})
	f.Add([]byte{0x01, 0x02, 0x03, 0x81, 0x82, 0x83, 0x01})
	f.Fuzz(func(t *testing.T, tape []byte) {
		const n = 32
		g := NewStreamingOpts(n, Options{HubThreshold: 4})
		oracle := map[[2]VertexID]Weight{}
		for i := 0; i+1 < len(tape); i += 2 {
			src := VertexID(tape[i] & 0x1f)
			dst := VertexID(tape[i+1] & 0x1f)
			if src == dst {
				continue
			}
			k := [2]VertexID{src, dst}
			if tape[i]&0x80 != 0 {
				_, want := oracle[k]
				if _, ok := g.DeleteEdge(src, dst); ok != want {
					t.Fatalf("DeleteEdge(%d,%d) = %v, oracle %v", src, dst, ok, want)
				}
				delete(oracle, k)
			} else {
				w := Weight(tape[i+1]%7) + 1
				_, dup := oracle[k]
				if g.AddEdge(Edge{src, dst, w}) == dup {
					t.Fatalf("AddEdge(%d,%d) diverged from oracle", src, dst)
				}
				if !dup {
					oracle[k] = w
				}
			}
			if w, ok := g.HasEdge(src, dst); ok != (oracle[k] != 0) || (ok && w != oracle[k]) {
				t.Fatalf("HasEdge(%d,%d) diverged", src, dst)
			}
		}
		if g.NumEdges() != len(oracle) {
			t.Fatalf("NumEdges %d != oracle %d", g.NumEdges(), len(oracle))
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkApplyBatchHub measures steady-state batch application on a
// 1-hub star graph and an RMAT graph, with and without the hub index (the
// scan variants are the pre-index baseline the >=5x acceptance criterion is
// judged against). Each iteration deletes K hub-incident edges and re-adds
// them, so the graph returns to its start state and every iteration does
// identical work.
func BenchmarkApplyBatchHub(b *testing.B) {
	const k = 256
	star := func() (*Streaming, Batch) {
		n := 1 << 15
		g := NewStreaming(n)
		for d := 1; d < n; d++ {
			g.AddEdge(Edge{0, VertexID(d), 1})
		}
		batch := make(Batch, 0, 2*k)
		for i := 0; i < k; i++ {
			batch = append(batch, Update{Edge: Edge{0, VertexID(1 + i*97), 1}, Del: true})
		}
		for i := 0; i < k; i++ {
			batch = append(batch, Update{Edge: Edge{0, VertexID(1 + i*97), 1}, Del: false})
		}
		return g, batch
	}
	rmat := func() (*Streaming, Batch) {
		const scale = 14
		r := rng.New(77)
		g := NewStreaming(1 << scale)
		var accepted []Edge
		for len(accepted) < 6*(1<<scale) {
			s, d := rmatEdge(r, scale)
			if s == d {
				continue
			}
			e := Edge{s, d, 1}
			if g.AddEdge(e) {
				accepted = append(accepted, e)
			}
		}
		// Target the natural RMAT hubs: take the k accepted edges with the
		// highest-degree sources so the batch stresses skewed lists.
		sort.SliceStable(accepted, func(i, j int) bool {
			return g.OutDegree(accepted[i].Src) > g.OutDegree(accepted[j].Src)
		})
		batch := make(Batch, 0, 2*k)
		for i := 0; i < k; i++ {
			batch = append(batch, Update{Edge: accepted[i], Del: true})
		}
		for i := 0; i < k; i++ {
			batch = append(batch, Update{Edge: accepted[i], Del: false})
		}
		return g, batch
	}
	for _, tc := range []struct {
		name  string
		build func() (*Streaming, Batch)
		scan  bool
	}{
		{"star/indexed", star, false},
		{"star/scan", star, true},
		{"rmat/indexed", rmat, false},
		{"rmat/scan", rmat, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g, batch := tc.build()
			if tc.scan {
				g.DisableHubIndex()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := len(g.ApplyBatch(batch)); got != len(batch) {
					b.Fatalf("applied %d of %d", got, len(batch))
				}
			}
			b.ReportMetric(float64(len(batch)), "updates/batch")
		})
	}
}
