// Package graphfly is a from-scratch Go reproduction of GraphFly (SC'22):
// efficient asynchronous streaming-graph processing via dependency-flows.
//
// The library processes batches of edge insertions and deletions over a
// directed weighted graph while keeping algorithm results (shortest paths,
// widest paths, BFS levels, connected components, PageRank, label
// propagation) incrementally converged. Its core idea, taken from the
// paper, is to partition the graph into dependency-flows derived from
// D-trees so that the refinement and recomputation phases of incremental
// processing fuse per flow instead of synchronizing globally.
//
// Quick start:
//
//	g := graphfly.NewGraph(4)
//	g.AddEdge(graphfly.Edge{Src: 0, Dst: 1, W: 1})
//	g.AddEdge(graphfly.Edge{Src: 1, Dst: 2, W: 1})
//	eng := graphfly.NewSSSP(g, 0, graphfly.Config{})
//	eng.ProcessBatch(graphfly.Batch{
//	    {Edge: graphfly.Edge{Src: 0, Dst: 2, W: 1}},           // insert
//	    {Edge: graphfly.Edge{Src: 1, Dst: 2, W: 1}, Del: true}, // delete
//	})
//	dist := eng.Value(2) // 1
//
// The KickStarter and GraphBolt baselines live in internal packages and are
// exposed through the benchmark harness (cmd/bench) rather than this API.
package graphfly

import (
	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Graph is the mutable streaming graph all engines operate on.
	Graph = graph.Streaming
	// Edge is a directed weighted edge.
	Edge = graph.Edge
	// Update is one streaming mutation (addition or deletion).
	Update = graph.Update
	// Batch is an atomically applied group of updates.
	Batch = graph.Batch
	// VertexID identifies a vertex (dense, in [0, NumVertices)).
	VertexID = graph.VertexID
	// Config tunes an engine (workers, flow cap, ablations, profiling).
	Config = engine.Config
	// BatchStats reports what one ProcessBatch did.
	BatchStats = engine.BatchStats
	// SelectiveEngine processes monotonic algorithms (SSSP/SSWP/BFS/CC).
	SelectiveEngine = engine.Selective
	// AccumulativeEngine processes aggregation algorithms (PageRank/LP).
	AccumulativeEngine = engine.Accumulative
	// BatchError reports the first malformed update in a rejected batch.
	// The engines' ProcessBatchE methods return it (wrapped) instead of
	// mutating state, so callers fed by untrusted update streams can drop
	// the bad batch and keep going; ProcessBatch panics with it instead.
	BatchError = graph.BatchError
	// Workload is a generated streaming experiment (initial graph + batches).
	Workload = gen.Workload
	// StreamConfig controls how a workload's update stream is sampled.
	StreamConfig = gen.StreamConfig
)

// NewGraph returns an empty streaming graph with n vertices.
func NewGraph(n int) *Graph { return graph.NewStreaming(n) }

// FromEdges builds a streaming graph from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// NewSSSP returns a GraphFly engine maintaining single-source shortest
// paths from src. The graph must already hold the initial edges; the
// constructor performs the initial (static) computation.
func NewSSSP(g *Graph, src VertexID, cfg Config) *SelectiveEngine {
	return engine.NewSelective(g, algo.SSSP{Src: src}, cfg)
}

// NewBFS returns a GraphFly engine maintaining BFS hop counts from src.
func NewBFS(g *Graph, src VertexID, cfg Config) *SelectiveEngine {
	return engine.NewSelective(g, algo.BFS{Src: src}, cfg)
}

// NewSSWP returns a GraphFly engine maintaining single-source widest paths
// from src.
func NewSSWP(g *Graph, src VertexID, cfg Config) *SelectiveEngine {
	return engine.NewSelective(g, algo.SSWP{Src: src}, cfg)
}

// NewCC returns a GraphFly engine maintaining connected components
// (minimum-label) with undirected semantics: batches are symmetrized
// automatically, and the initial graph should contain both directions of
// every edge (use SymmetrizeEdges).
func NewCC(g *Graph, cfg Config) *SelectiveEngine {
	return engine.NewSelective(g, algo.CC{}, cfg)
}

// NewPageRank returns a GraphFly engine maintaining damped weighted
// PageRank over the streaming graph.
func NewPageRank(g *Graph, cfg Config) *AccumulativeEngine {
	return engine.NewAccumulative(g, algo.NewPageRank(g.NumVertices()), cfg)
}

// NewLabelPropagation returns a GraphFly engine maintaining seeded label
// propagation with k labels. seeds maps vertices to their fixed labels in
// [0, k).
func NewLabelPropagation(g *Graph, k int, seeds map[VertexID]int, cfg Config) *AccumulativeEngine {
	return engine.NewAccumulative(g, algo.NewLabelPropagation(k, seeds), cfg)
}

// Argmax returns the winning label index of a label-propagation state
// vector (-1 when the vertex received no label mass).
func Argmax(state []float64) int { return algo.Argmax(state) }

// SymmetrizeEdges returns the edge list with the reverse of every edge
// added (deduplicated), for undirected algorithms such as CC.
func SymmetrizeEdges(edges []Edge) []Edge {
	type key struct{ a, b VertexID }
	seen := make(map[key]bool, len(edges))
	out := make([]Edge, 0, 2*len(edges))
	for _, e := range edges {
		a, b := e.Src, e.Dst
		if a > b {
			a, b = b, a
		}
		k := key{a, b}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out,
			Edge{Src: a, Dst: b, W: e.W},
			Edge{Src: b, Dst: a, W: e.W},
		)
	}
	return out
}

// Dataset returns the synthetic stand-in for one of the paper's graphs
// ("FT", "TT", "TW", "UK", "LJ") as an edge list plus its vertex count.
func Dataset(code string) (numV int, edges []Edge) {
	cfg := gen.Dataset(code)
	return cfg.NumV, gen.Generate(cfg)
}

// NewWorkload samples a streaming workload from an edge list following the
// paper's methodology (warm start + batched additions/deletions).
func NewWorkload(numV int, edges []Edge, sc StreamConfig) Workload {
	return gen.BuildWorkload(numV, edges, sc)
}

// DefaultStream returns the paper's default stream shape: 50 % warm start
// and 10 % deletions per batch.
func DefaultStream(batchSize, numBatches int, seed uint64) StreamConfig {
	return gen.DefaultStream(batchSize, numBatches, seed)
}
