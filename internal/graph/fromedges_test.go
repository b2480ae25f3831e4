package graph

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// addEdgeLoop is the one-edge-at-a-time build FromEdgesOpts must reproduce.
func addEdgeLoop(n int, edges []Edge, o Options) *Streaming {
	g := NewStreamingOpts(n, o)
	for _, e := range edges {
		g.AddEdge(e)
	}
	return g
}

// sameBuild fails unless got and want are indistinguishable: list contents
// and order, weights, per-list capacity, hub-index presence and table size,
// edge count and hysteresis band.
func sameBuild(t *testing.T, got, want *Streaming, ctx string) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d vertices / %d edges, want %d / %d", ctx,
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	if got.hubBuild != want.hubBuild || got.hubDrop != want.hubDrop {
		t.Fatalf("%s: hub band %d/%d, want %d/%d", ctx, got.hubBuild, got.hubDrop, want.hubBuild, want.hubDrop)
	}
	side := func(dir string, gl, wl [][]Half, gi, wi []*hubIndex) {
		for v := range wl {
			if !slices.Equal(gl[v], wl[v]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", ctx, dir, v, gl[v], wl[v])
			}
			if cap(gl[v]) != cap(wl[v]) {
				t.Fatalf("%s: cap(%s[%d]) = %d, want %d (len %d)", ctx, dir, v, cap(gl[v]), cap(wl[v]), len(wl[v]))
			}
			if (gi[v] == nil) != (wi[v] == nil) {
				t.Fatalf("%s: %s-index of %d present = %v, want %v", ctx, dir, v, gi[v] != nil, wi[v] != nil)
			}
			if gi[v] != nil && len(gi[v].slots) != len(wi[v].slots) {
				t.Fatalf("%s: %s-index of %d has %d slots, want %d", ctx, dir, v, len(gi[v].slots), len(wi[v].slots))
			}
		}
	}
	side("out", got.out, want.out, got.outIdx, want.outIdx)
	side("in", got.in, want.in, got.inIdx, want.inIdx)
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

// star returns edges hub->i (out) and i->hub (in) for i in 1..deg, in an
// interleaved order so both lists grow together.
func star(hub VertexID, deg int) []Edge {
	var es []Edge
	for i := 1; i <= deg; i++ {
		es = append(es, Edge{hub, hub + VertexID(i), Weight(i%5 + 1)}, Edge{hub + VertexID(i), hub, 2})
	}
	return es
}

func TestFromEdgesMatchesAddEdge(t *testing.T) {
	r := rng.New(37)
	churned := addEdgeLoop(1<<9, nil, Options{})
	for i := 0; i < 6; i++ {
		churned.ApplyBatch(rmatBatch(r, 9, 4000))
	}
	random := func(n, m int) []Edge {
		es := make([]Edge, m)
		for i := range es {
			es[i] = Edge{VertexID(r.Intn(n)), VertexID(r.Intn(n)), Weight(r.Intn(8) + 1)}
		}
		return es
	}
	type tc struct {
		name  string
		n     int
		edges []Edge
		o     Options
	}
	cases := []tc{
		{name: "empty", n: 0},
		{name: "one vertex", n: 1},
		{name: "one self-loop", n: 1, edges: []Edge{{0, 0, 3}}},
		{name: "self-loops", n: 4, edges: []Edge{{1, 1, 1}, {1, 2, 1}, {2, 2, 5}, {1, 1, 9}, {3, 3, 2}}},
		{name: "duplicates, first wins", n: 3, edges: []Edge{{0, 1, 5}, {1, 2, 1}, {0, 1, 2}, {0, 2, 7}, {1, 2, 4}, {0, 1, 9}}},
		{name: "ids 0 and n-1", n: 100, edges: []Edge{{99, 0, 1}, {0, 99, 2}, {99, 99, 3}, {0, 0, 4}, {99, 0, 5}}},
		{name: "degree 63", n: 64, edges: star(0, 63)},
		{name: "degree 64", n: 65, edges: star(0, 64)},
		{name: "degree 65", n: 66, edges: star(0, 65)},
		// past the 256-element growth step and the 32 KB small-object limit
		{name: "degree 5000", n: 5001, edges: star(0, 5000)},
		{name: "random", n: 200, edges: random(200, 6000)},
		{name: "hub threshold 1", n: 50, edges: random(50, 800), o: Options{HubThreshold: 1}},
		{name: "hub threshold 8", n: 50, edges: random(50, 800), o: Options{HubThreshold: 8}},
		{name: "sorted Edges() of a churned graph", n: churned.NumVertices(), edges: churned.Edges()},
	}
	for _, c := range cases {
		sameBuild(t, FromEdgesOpts(c.n, c.edges, c.o), addEdgeLoop(c.n, c.edges, c.o), c.name)
	}
}

// FuzzFromEdges decodes a byte tape into an edge list over 32 vertices,
// three bytes an edge (src, dst, weight), and checks the bulk build against
// the AddEdge loop. The hub threshold is lowered to 4 so indexes are built.
func FuzzFromEdges(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x03, 0x00, 0x01, 0x05, 0x01, 0x01, 0x00})
	f.Add([]byte{0x1f, 0x00, 0x01, 0x1f, 0x01, 0x02, 0x1f, 0x02, 0x03, 0x1f, 0x03, 0x04, 0x1f, 0x04, 0x05})
	f.Fuzz(func(t *testing.T, tape []byte) {
		const n = 32
		var edges []Edge
		for i := 0; i+2 < len(tape); i += 3 {
			edges = append(edges, Edge{VertexID(tape[i] % n), VertexID(tape[i+1] % n), Weight(tape[i+2]%7) + 1})
		}
		o := Options{HubThreshold: 4}
		sameBuild(t, FromEdgesOpts(n, edges, o), addEdgeLoop(n, edges, o), "fuzz")
	})
}
