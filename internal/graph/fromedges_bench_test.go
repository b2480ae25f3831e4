package graph_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

var builtGraph *graph.Streaming

// BenchmarkFromEdges times the bulk build of the TT preset's RMAT graph
// (scaled by GRAPHFLY_SCALE), the load every run, WAL recovery and cluster
// worker checkpoint pays before its first batch. It lives in an external
// package because gen imports graph.
func BenchmarkFromEdges(b *testing.B) {
	cfg := gen.Dataset("TT")
	edges := gen.Generate(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builtGraph = graph.FromEdges(cfg.NumV, edges)
	}
}
