package graph

import "testing"

// TestOptionsThresholds checks that per-graph thresholds drive index build
// and hysteresis drop, replacing the compile-time constants.
func TestOptionsThresholds(t *testing.T) {
	g := NewStreamingOpts(64, Options{HubThreshold: 8})
	build, drop := g.HubThresholds()
	if build != 8 || drop != 2 {
		t.Fatalf("thresholds = (%d,%d), want (8,2)", build, drop)
	}
	for i := VertexID(1); i <= 7; i++ {
		g.AddEdge(Edge{Src: 0, Dst: i, W: 1})
	}
	if g.inIdx[1] != nil {
		t.Fatal("vertex 1 (in-degree 1) reported as hub")
	}
	if g.outIdx[0] != nil {
		t.Fatal("out-index built below threshold")
	}
	g.AddEdge(Edge{Src: 0, Dst: 8, W: 1})
	if g.outIdx[0] == nil {
		t.Fatal("out-index not built at threshold 8")
	}
	// Hysteresis: the index survives down to drop (=2) and is shed below it.
	for i := VertexID(1); i <= 6; i++ {
		g.DeleteEdge(0, i)
	}
	if g.outIdx[0] == nil {
		t.Fatal("index dropped above the hysteresis floor")
	}
	g.DeleteEdge(0, 7)
	if g.outIdx[0] != nil {
		t.Fatal("index kept below the hysteresis floor")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSetHubThresholds retunes a live graph and checks indexes are rebuilt
// or shed to match the new band, in-index included.
func TestSetHubThresholds(t *testing.T) {
	g := NewStreaming(64)
	for i := VertexID(1); i <= 16; i++ {
		g.AddEdge(Edge{Src: i, Dst: 0, W: 1}) // vertex 0: in-degree 16
	}
	if g.inIdx[0] != nil {
		t.Fatal("in-degree 16 is a hub at default threshold 64")
	}
	g.SetHubThresholds(8, 0)
	if g.inIdx[0] == nil {
		t.Fatal("in-degree 16 not a hub after retuning to 8")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Raising the band far above current degrees sheds the index again
	// (16 < drop floor 64/4).
	g.SetHubThresholds(256, 0)
	if g.inIdx[0] != nil {
		t.Fatal("index survived a retune far above its degree")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if c := g.Clone(); func() bool { b, d := c.HubThresholds(); return b != 256 || d != 64 }() {
		t.Fatal("Clone dropped the retuned thresholds")
	}
}

// TestSetHubThresholdsDenseOff: retuning under DisableHubIndex stays a no-op.
func TestSetHubThresholdsDenseOff(t *testing.T) {
	g := NewStreaming(32)
	g.DisableHubIndex()
	for i := VertexID(1); i <= 16; i++ {
		g.AddEdge(Edge{Src: i, Dst: 0, W: 1})
	}
	g.SetHubThresholds(4, 0)
	if g.inIdx[0] != nil {
		t.Fatal("in-index built with hub indexing disabled")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
