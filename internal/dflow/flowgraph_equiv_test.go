package dflow

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/etree"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// flowOracle recomputes the flow adjacency from scratch as the old
// map-of-maps representation would have: counts of graph edges per
// cross-flow pair.
func flowOracle(g *graph.Streaming, p *Partition) []map[int32]int32 {
	out := make([]map[int32]int32, p.NumFlows())
	for _, e := range g.Edges() {
		fu, fv := p.Flow(e.Src), p.Flow(e.Dst)
		if fu == fv {
			continue
		}
		if out[fu] == nil {
			out[fu] = make(map[int32]int32)
		}
		out[fu][fv]++
	}
	return out
}

// flowCounts reads fg's refcounts out of row f exactly: the CSR entries
// with a positive count plus the overflow map. A pair lives in one of the
// two, never both, and no count is negative.
func flowCounts(t *testing.T, tag string, fg *FlowGraph, f int32) map[int32]int32 {
	t.Helper()
	got := make(map[int32]int32)
	for p := fg.outPtr[f]; p < fg.outPtr[f+1]; p++ {
		switch c := fg.outCnt[p]; {
		case c < 0:
			t.Fatalf("%s: flow %d -> %d count %d", tag, f, fg.outDst[p], c)
		case c > 0:
			got[fg.outDst[p]] = c
		}
	}
	for x, c := range fg.outOvf[f] {
		if c <= 0 {
			t.Fatalf("%s: flow %d -> %d overflow count %d", tag, f, x, c)
		}
		if csrFind(fg.outPtr, fg.outDst, f, x) >= 0 {
			t.Fatalf("%s: flow %d -> %d both in the CSR and the overflow", tag, f, x)
		}
		got[x] = c
	}
	return got
}

// compareFlowGraph holds every row of fg to the oracle's exact per-pair
// edge counts, and its OutFlows and OutDegree views to the oracle's pairs.
func compareFlowGraph(t *testing.T, tag string, fg *FlowGraph, g *graph.Streaming, p *Partition) {
	t.Helper()
	out := flowOracle(g, p)
	for f := int32(0); int(f) < p.NumFlows(); f++ {
		if got := flowCounts(t, tag, fg, f); !maps.Equal(got, out[f]) {
			t.Fatalf("%s: flow %d counts = %v, oracle %v", tag, f, got, out[f])
		}
		var wantOut []int32
		for x := range out[f] {
			wantOut = append(wantOut, x)
		}
		slices.Sort(wantOut)
		var gotOut []int32
		fg.OutFlows(f, func(x int32) { gotOut = append(gotOut, x) })
		slices.Sort(gotOut)
		if !slices.Equal(gotOut, wantOut) {
			t.Fatalf("%s: flow %d out = %v, oracle %v", tag, f, gotOut, wantOut)
		}
		if fg.OutDegree(f) != len(wantOut) {
			t.Fatalf("%s: flow %d OutDegree = %d, oracle %d", tag, f, fg.OutDegree(f), len(wantOut))
		}
	}
}

// TestFlowGraphMatchesMapOracle streams random add/delete updates through
// the CSR-backed FlowGraph (including deletions driving CSR counts to zero
// and re-additions resurrecting them, plus novel pairs landing in the
// overflow maps) and checks every view against a from-scratch oracle.
// Mid-stream Rebuild calls must fold the overflow back into the CSR and
// keep all views identical.
func TestFlowGraphMatchesMapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		cfg := gen.Config{Kind: gen.ER, NumV: 60, NumE: 150, Seed: seed}
		g := graph.FromEdges(cfg.NumV, gen.Generate(cfg))
		f := etree.NewForest(g, etree.Forward)
		p := NewPartition(f, 6)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		fg := NewFlowGraph(g, p)
		compareFlowGraph(t, "initial", fg, g, p)

		for step := 0; step < 200; step++ {
			src := graph.VertexID(r.Intn(cfg.NumV))
			dst := graph.VertexID(r.Intn(cfg.NumV))
			if src == dst {
				continue
			}
			if r.Float64() < 0.45 {
				if _, ok := g.DeleteEdge(src, dst); ok {
					fg.DeleteEdge(src, dst)
				}
			} else {
				if g.AddEdge(graph.Edge{Src: src, Dst: dst, W: 1}) {
					fg.AddEdge(src, dst)
				}
			}
			if step%23 == 0 {
				compareFlowGraph(t, "stream", fg, g, p)
			}
			if step%67 == 66 {
				fg.Rebuild(g, p) // same partition, fresh CSR
				compareFlowGraph(t, "rebuild", fg, g, p)
			}
		}
		compareFlowGraph(t, "final", fg, g, p)

		// A rebuild under a brand-new partition (the repartition path) must
		// also agree, reusing the same buffers.
		f2 := etree.NewForest(g, etree.Forward)
		p2 := NewPartition(f2, 9)
		fg.Rebuild(g, p2)
		compareFlowGraph(t, "repartition", fg, g, p2)
	}
}

// TestFlowGraphLongStreamNoRebuild is the regime an engine runs in: the
// partition lives for the whole stream, so nothing ever folds the overflow
// back into the CSR. 2,400 applied random additions and deletions, about
// half of each, drive CSR counts to zero and back up and fill the overflow
// maps; the exact counts must match the oracle throughout.
func TestFlowGraphLongStreamNoRebuild(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		cfg := gen.Config{Kind: gen.RMAT, NumV: 64, NumE: 200, A: 0.6, B: 0.19, C: 0.19, Seed: seed}
		g := graph.FromEdges(cfg.NumV, gen.Generate(cfg))
		p := randomPartition(r, cfg.NumV, 9)
		fg := NewFlowGraph(g, p)
		tag := func(s string) string { return fmt.Sprintf("seed %d %s", seed, s) }
		zeroed := make(map[int32]bool) // CSR positions seen at count zero
		revived, overflowed := false, false
		for applied := 0; applied < 2400; {
			src, dst := graph.VertexID(r.Intn(cfg.NumV)), graph.VertexID(r.Intn(cfg.NumV))
			if src == dst {
				continue
			}
			if r.Float64() < 0.5 {
				if _, ok := g.DeleteEdge(src, dst); !ok {
					continue
				}
				fg.DeleteEdge(src, dst)
			} else {
				if !g.AddEdge(graph.Edge{Src: src, Dst: dst, W: 1}) {
					continue
				}
				fg.AddEdge(src, dst)
			}
			if applied++; applied%50 == 0 {
				compareFlowGraph(t, tag(fmt.Sprintf("update %d", applied)), fg, g, p)
				for pos, c := range fg.outCnt {
					if c == 0 {
						zeroed[int32(pos)] = true
					} else if zeroed[int32(pos)] {
						revived = true
					}
				}
				for _, m := range fg.outOvf {
					overflowed = overflowed || len(m) > 0
				}
			}
		}
		compareFlowGraph(t, tag("final"), fg, g, p)
		if len(zeroed) == 0 || !revived || !overflowed {
			t.Fatalf("%s: stream missed a regime: %d CSR entries seen at zero, revived %v, overflow used %v",
				tag("coverage"), len(zeroed), revived, overflowed)
		}
	}
}

// randomPartition assigns every vertex to one of nf flows, leaving the
// flows listed in empty without members.
func randomPartition(r *rng.Xoshiro256, n, nf int, empty ...int32) *Partition {
	p := &Partition{FlowOf: make([]int32, n), Flows: make([][]uint32, nf), Cap: n}
	skip := make(map[int32]bool, len(empty))
	for _, f := range empty {
		skip[f] = true
	}
	for v := 0; v < n; v++ {
		f := int32(r.Intn(nf))
		for skip[f] {
			f = (f + 1) % int32(nf)
		}
		p.FlowOf[v] = f
		p.Flows[f] = append(p.Flows[f], uint32(v))
	}
	return p
}

// TestCountingRebuildMatchesOracle holds the counting build to the
// map-of-maps oracle at 1, 2 and 8 workers on skewed graphs under random
// partitions: a fresh build, a rebuild into retained buffers after
// overflow-map traffic, a partition with empty flows, and a single flow.
// Under -race it is also the check that workers share no row or counter.
func TestCountingRebuildMatchesOracle(t *testing.T) {
	graphs := []gen.Config{
		{Kind: gen.RMAT, NumV: 700, NumE: 9000, A: 0.6, B: 0.19, C: 0.19},
		{Kind: gen.BA, NumV: 500, NumE: 6000},
	}
	for _, cfg := range graphs {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg.Seed = seed
			for _, workers := range []int{1, 2, 8} {
				r := rng.New(seed*31 + uint64(workers))
				g := graph.FromEdges(cfg.NumV, gen.Generate(cfg))
				tag := func(s string) string { return fmt.Sprintf("%v seed %d workers %d %s", cfg.Kind, seed, workers, s) }

				p := randomPartition(r, cfg.NumV, 37)
				fg := &FlowGraph{}
				fg.rebuild(g, p, workers)
				compareFlowGraph(t, tag("fresh"), fg, g, p)

				// Pairs the CSR has never seen land in the overflow maps; the
				// next rebuild must fold them in and empty the maps.
				for step := 0; step < 400; step++ {
					src, dst := graph.VertexID(r.Intn(cfg.NumV)), graph.VertexID(r.Intn(cfg.NumV))
					if src == dst {
						continue
					}
					if r.Float64() < 0.4 {
						if _, ok := g.DeleteEdge(src, dst); ok {
							fg.DeleteEdge(src, dst)
						}
					} else if g.AddEdge(graph.Edge{Src: src, Dst: dst, W: 1}) {
						fg.AddEdge(src, dst)
					}
				}
				compareFlowGraph(t, tag("streamed"), fg, g, p)

				p2 := randomPartition(r, cfg.NumV, 53, 0, 17, 52)
				fg.rebuild(g, p2, workers)
				compareFlowGraph(t, tag("retained, empty flows"), fg, g, p2)
				for f, m := range fg.outOvf {
					if len(m) != 0 {
						t.Fatalf("%s: overflow of flow %d survived the rebuild", tag("retained"), f)
					}
				}

				p1 := randomPartition(r, cfg.NumV, 1)
				fg.rebuild(g, p1, workers)
				compareFlowGraph(t, tag("one flow"), fg, g, p1)
				if len(fg.outDst) != 0 {
					t.Fatalf("%s: %d entries in a one-flow graph", tag("one flow"), len(fg.outDst))
				}
			}
		}
	}
}

// TestRebuildWorkerCountInvisible: the CSR arrays, not just the views, are
// the same whichever worker built which row.
func TestRebuildWorkerCountInvisible(t *testing.T) {
	cfg := gen.Config{Kind: gen.RMAT, NumV: 900, NumE: 12000, A: 0.6, B: 0.19, C: 0.19, Seed: 9}
	g := graph.FromEdges(cfg.NumV, gen.Generate(cfg))
	p := randomPartition(rng.New(9), cfg.NumV, 41, 5)
	one := &FlowGraph{}
	one.rebuild(g, p, 1)
	for _, workers := range []int{2, 8, 64} {
		fg := &FlowGraph{}
		fg.rebuild(g, p, workers)
		for name, pair := range map[string][2][]int32{
			"outPtr": {one.outPtr, fg.outPtr}, "outDst": {one.outDst, fg.outDst}, "outCnt": {one.outCnt, fg.outCnt},
			"outDeg": {one.outDeg, fg.outDeg},
		} {
			if !slices.Equal(pair[0], pair[1]) {
				t.Fatalf("workers %d: %s differs from the one-worker build", workers, name)
			}
		}
	}
}

// TestRebuildSteadyStateAllocs: a rebuild into retained buffers allocates
// nothing, parallel or not (BenchmarkRepartition/flowgraph reports the same).
func TestRebuildSteadyStateAllocs(t *testing.T) {
	cfg := gen.Config{Kind: gen.RMAT, NumV: 700, NumE: 9000, A: 0.6, B: 0.19, C: 0.19, Seed: 3}
	g := graph.FromEdges(cfg.NumV, gen.Generate(cfg))
	p := randomPartition(rng.New(3), cfg.NumV, 37)
	for _, workers := range []int{1, 2} {
		fg := &FlowGraph{}
		fg.rebuild(g, p, workers)
		if a := testing.AllocsPerRun(10, func() { fg.rebuild(g, p, workers) }); a != 0 {
			t.Errorf("workers %d: %v allocs per steady-state rebuild, want 0", workers, a)
		}
	}
}
