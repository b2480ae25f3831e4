package graph

import (
	"fmt"
	"reflect"
	"testing"
)

// twinsExact checks the twin rule from the in-lists' side, independently
// of Validate's walk from the out-lists: every in-half names the position
// of an out-half of the same edge and weight that names it back.
func twinsExact(g *Streaming) error {
	for v, l := range g.in {
		for j, h := range l {
			out := g.out[h.To]
			if int(h.twin) >= len(out) {
				return fmt.Errorf("in-half %d<-%d at %d: twin %d past out-list of %d", v, h.To, j, h.twin, len(out))
			}
			if o := out[h.twin]; o.To != VertexID(v) || o.twin != uint32(j) || o.W != h.W {
				return fmt.Errorf("in-half %d<-%d at %d: twin %d holds %+v", v, h.To, j, h.twin, o)
			}
		}
	}
	return nil
}

// noInIndex fails if Streaming holds any hub index besides the out-lists'
// one: in-lists reach a deleted half through its twin and are never
// searched, whatever the thresholds.
func noInIndex(t *testing.T, g *Streaming) {
	t.Helper()
	typ := reflect.TypeOf(g).Elem()
	idx := reflect.TypeOf(g.outIdx)
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type == idx && f.Name != "outIdx" {
			t.Fatalf("Streaming.%s is a second hub index", f.Name)
		}
	}
	if err := twinsExact(g); err != nil {
		t.Fatal(err)
	}
}

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
	noInIndex(t, g)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSetHubThresholds retunes a live graph: out-indexes are rebuilt or
// shed to match the new band, and an in-hub gains no index at any band
// while deletions from it keep the twins exact.
func TestSetHubThresholds(t *testing.T) {
	g := NewStreaming(64)
	for i := VertexID(1); i <= 16; i++ {
		g.AddEdge(Edge{Src: 0, Dst: i, W: 1}) // vertex 0: out-degree 16
		g.AddEdge(Edge{Src: i, Dst: 0, W: 2}) // vertex 0: in-degree 16
	}
	if g.outIdx[0] != nil {
		t.Fatal("out-degree 16 is a hub at default threshold 64")
	}
	g.SetHubThresholds(8, 0)
	if g.outIdx[0] == nil {
		t.Fatal("out-degree 16 not a hub after retuning to 8")
	}
	for i := VertexID(1); i <= 16; i += 3 {
		g.DeleteEdge(i, 0)
	}
	noInIndex(t, g)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Raising the band far above current degrees sheds the index again
	// (16 < drop floor 64/4).
	g.SetHubThresholds(256, 0)
	if g.outIdx[0] != nil {
		t.Fatal("index survived a retune far above its degree")
	}
	noInIndex(t, g)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if c := g.Clone(); func() bool { b, d := c.HubThresholds(); return b != 256 || d != 64 }() {
		t.Fatal("Clone dropped the retuned thresholds")
	}
}

// TestSetHubThresholdsDenseOff: retuning under DisableHubIndex stays a
// no-op, and the scan path keeps the twins exact.
func TestSetHubThresholdsDenseOff(t *testing.T) {
	g := NewStreaming(32)
	g.DisableHubIndex()
	for i := VertexID(1); i <= 16; i++ {
		g.AddEdge(Edge{Src: i, Dst: 0, W: 1})
		g.AddEdge(Edge{Src: 0, Dst: i, W: 1})
	}
	g.SetHubThresholds(4, 0)
	if g.outIdx[0] != nil {
		t.Fatal("out-index built with hub indexing disabled")
	}
	g.DeleteEdge(0, 1)
	g.DeleteEdge(5, 0)
	noInIndex(t, g)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
