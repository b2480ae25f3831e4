// Package graph provides the streaming-graph substrate used by every engine
// in the GraphFly reproduction: a mutable directed weighted multigraph-free
// adjacency structure supporting batched edge additions and deletions, plus
// immutable CSR snapshots for static computation.
//
// Terminology follows the paper: a streaming graph starts from an initial
// graph G0 and evolves by applying batches of edge updates. Vertex IDs are
// dense integers in [0, N). Edges are directed; algorithms that need
// undirected semantics (e.g. connected components) insert both directions.
package graph

import (
	"fmt"
	"sort"

	"repro/internal/dense"
)

// VertexID identifies a vertex. IDs are dense: every ID in [0, NumVertices)
// is a valid vertex (possibly with no edges).
type VertexID = uint32

// Weight is an edge weight. Generators produce small positive integers
// stored as float64 so selective algorithms stay exactly comparable across
// engines.
type Weight = float64

// Edge is a directed weighted edge.
type Edge struct {
	Src VertexID
	Dst VertexID
	W   Weight
}

// Half is the destination half of an edge as stored in an adjacency list.
type Half struct {
	To VertexID
	W  Weight
}

// Update is a single streaming mutation.
type Update struct {
	Edge
	Del bool // true = deletion, false = addition
}

// Batch is an ordered set of updates applied atomically between queries.
type Batch []Update

// Additions returns the number of additions in the batch.
func (b Batch) Additions() int {
	n := 0
	for _, u := range b {
		if !u.Del {
			n++
		}
	}
	return n
}

// Deletions returns the number of deletions in the batch.
func (b Batch) Deletions() int { return len(b) - b.Additions() }

// HubThreshold is the degree at which a vertex's adjacency list gains a
// neighbour->position hash index, making HasEdge/AddEdge/DeleteEdge O(1)
// amortized on that list regardless of skew. Below the threshold a linear
// scan over a short cache-resident slice is faster than a map probe; 64
// halves (~1KB of Half entries) is where the scan stops winning on the
// power-law hubs RMAT/BA produce. The index is dropped again only when the
// degree falls below HubThreshold/4 (hysteresis, so a hub oscillating
// around the threshold does not thrash index builds).
const HubThreshold = 64

// hubDropThreshold is the hysteresis floor: an index is discarded only when
// the degree shrinks to a quarter of the build threshold.
const hubDropThreshold = HubThreshold / 4

// Options tunes a streaming graph at construction time. The zero value
// selects the package defaults (HubThreshold build, HubThreshold/4 drop).
type Options struct {
	// HubThreshold is the degree at which an adjacency list gains its
	// neighbour->position index. 0 means the package default (64).
	HubThreshold int
	// HubDropThreshold is the hysteresis floor below which the index is
	// discarded again. 0 means HubThreshold/4. Values >= HubThreshold are
	// clamped to HubThreshold-1 so the hysteresis band never inverts.
	HubDropThreshold int
}

// normalize resolves zero values to defaults and keeps drop < build.
func (o Options) normalize() (build, drop int) {
	build = o.HubThreshold
	if build <= 0 {
		build = HubThreshold
	}
	drop = o.HubDropThreshold
	if drop <= 0 {
		drop = build / 4
		if drop < 1 {
			drop = 1
		}
	}
	if drop >= build {
		drop = build - 1
	}
	return build, drop
}

// Streaming is a mutable directed graph with both out- and in-adjacency,
// supporting O(1) amortized edge addition, deletion, and lookup: adjacency
// lists of high-degree (hub) vertices carry an incrementally maintained
// neighbour->position index, low-degree lists are scanned.
//
// Streaming is not safe for concurrent mutation of the same vertex's list;
// ApplyBatchParallel shards work so each vertex's list is owned by exactly
// one goroutine (the hub indexes follow the same sharding: out-indexes are
// touched only by out-list owners, in-indexes only by in-list owners).
type Streaming struct {
	out [][]Half
	in  [][]Half
	// outIdx[v] / inIdx[v] map a neighbour to its position in out[v] /
	// in[v]. Non-nil only while v is a hub in that direction.
	outIdx []map[VertexID]int32
	inIdx  []map[VertexID]int32
	m      int
	noIdx  bool // hub indexing disabled (the linear-scan reference in tests)
	// hubBuild/hubDrop are this graph's hysteresis band (Options; defaults
	// HubThreshold and HubThreshold/4).
	hubBuild int
	hubDrop  int
}

// NewStreaming returns an empty streaming graph with n vertices and the
// default hub-index thresholds.
func NewStreaming(n int) *Streaming {
	return NewStreamingOpts(n, Options{})
}

// NewStreamingOpts returns an empty streaming graph with n vertices and the
// given tuning options.
func NewStreamingOpts(n int, o Options) *Streaming {
	build, drop := o.normalize()
	return &Streaming{
		out:      make([][]Half, n),
		in:       make([][]Half, n),
		outIdx:   make([]map[VertexID]int32, n),
		inIdx:    make([]map[VertexID]int32, n),
		hubBuild: build,
		hubDrop:  drop,
	}
}

// DisableHubIndex drops all hub indexes and turns maintenance off, forcing
// every adjacency operation back to the linear-scan path. It exists as the
// reference the hub-index equivalence tests compare against; call it before
// heavy mutation, not concurrently with it.
func (g *Streaming) DisableHubIndex() {
	g.noIdx = true
	for v := range g.outIdx {
		g.outIdx[v] = nil
		g.inIdx[v] = nil
	}
}

// FromEdges builds a streaming graph with n vertices from an edge list.
// Duplicate (src,dst) pairs are dropped (first wins) so the graph is simple.
func FromEdges(n int, edges []Edge) *Streaming {
	return FromEdgesOpts(n, edges, Options{})
}

// FromEdgesOpts is FromEdges with explicit tuning options.
func FromEdgesOpts(n int, edges []Edge, o Options) *Streaming {
	g := NewStreamingOpts(n, o)
	for _, e := range edges {
		g.AddEdge(e)
	}
	return g
}

// HubThresholds returns the graph's current hysteresis band.
func (g *Streaming) HubThresholds() (build, drop int) { return g.hubBuild, g.hubDrop }

// SetHubThresholds retunes the hysteresis band on a live graph: indexes are
// built for every list at or above the new build threshold and dropped for
// every list below the new drop floor (lists in between keep whatever they
// had — hysteresis). drop <= 0 means build/4. A no-op when hub indexing is
// disabled. Not safe concurrently with mutation.
func (g *Streaming) SetHubThresholds(build, drop int) {
	b, d := Options{HubThreshold: build, HubDropThreshold: drop}.normalize()
	g.hubBuild, g.hubDrop = b, d
	if g.noIdx {
		return
	}
	retune := func(lists [][]Half, idxs []map[VertexID]int32) {
		for v, l := range lists {
			switch {
			case idxs[v] == nil && len(l) >= b:
				idx := make(map[VertexID]int32, 2*len(l))
				for i, e := range l {
					idx[e.To] = int32(i)
				}
				idxs[v] = idx
			case idxs[v] != nil && len(l) < d:
				idxs[v] = nil
			}
		}
	}
	retune(g.out, g.outIdx)
	retune(g.in, g.inIdx)
}

// InHub reports whether v currently carries an in-adjacency hub index —
// the signal the engines use to decide which vertices to replicate. Always
// false when hub indexing is disabled.
func (g *Streaming) InHub(v VertexID) bool { return g.inIdx[v] != nil }

// NumVertices returns N.
func (g *Streaming) NumVertices() int { return len(g.out) }

// NumEdges returns the current number of directed edges.
func (g *Streaming) NumEdges() int { return g.m }

// OutDegree returns the out-degree of v.
func (g *Streaming) OutDegree(v VertexID) int { return len(g.out[v]) }

// InDegree returns the in-degree of v.
func (g *Streaming) InDegree(v VertexID) int { return len(g.in[v]) }

// Out returns the out-adjacency of v. The slice must not be mutated and is
// invalidated by the next batch application.
func (g *Streaming) Out(v VertexID) []Half { return g.out[v] }

// In returns the in-adjacency of v under the same aliasing rules as Out.
func (g *Streaming) In(v VertexID) []Half { return g.in[v] }

// lookupHalf returns the position of `to` in list, consulting the hub index
// when one exists, or -1 when absent.
func lookupHalf(list []Half, idx map[VertexID]int32, to VertexID) int32 {
	if idx != nil {
		if p, ok := idx[to]; ok {
			return p
		}
		return -1
	}
	for i, h := range list {
		if h.To == to {
			return int32(i)
		}
	}
	return -1
}

// appendHalf appends h to lists[u] and maintains the hub index: existing
// indexes learn the new position, and a list crossing HubThreshold gets one
// built (O(degree) once, amortized O(1) per add).
func (g *Streaming) appendHalf(lists [][]Half, idxs []map[VertexID]int32, u VertexID, h Half) {
	lists[u] = append(lists[u], h)
	l := lists[u]
	if idx := idxs[u]; idx != nil {
		idx[h.To] = int32(len(l) - 1)
	} else if !g.noIdx && len(l) >= g.hubBuild {
		idx = make(map[VertexID]int32, 2*len(l))
		for i, e := range l {
			idx[e.To] = int32(i)
		}
		idxs[u] = idx
	}
}

// removeHalfIdx swap-deletes `to` from lists[u], fixing up the moved
// entry's index position and dropping the index under hubDropThreshold.
func (g *Streaming) removeHalfIdx(lists [][]Half, idxs []map[VertexID]int32, u, to VertexID) (Weight, bool) {
	idx := idxs[u]
	p := lookupHalf(lists[u], idx, to)
	if p < 0 {
		return 0, false
	}
	l := lists[u]
	w := l[p].W
	last := len(l) - 1
	moved := l[last]
	l[p] = moved
	lists[u] = l[:last]
	if idx != nil {
		delete(idx, to)
		if int(p) != last {
			idx[moved.To] = p
		}
		if last < g.hubDrop {
			idxs[u] = nil
		}
	}
	return w, true
}

// HasEdge reports whether edge src->dst exists and returns its weight.
func (g *Streaming) HasEdge(src, dst VertexID) (Weight, bool) {
	if p := lookupHalf(g.out[src], g.outIdx[src], dst); p >= 0 {
		return g.out[src][p].W, true
	}
	return 0, false
}

// AddEdge inserts e if absent. It reports whether the edge was inserted.
func (g *Streaming) AddEdge(e Edge) bool {
	if p := lookupHalf(g.out[e.Src], g.outIdx[e.Src], e.Dst); p >= 0 {
		return false
	}
	g.appendHalf(g.out, g.outIdx, e.Src, Half{To: e.Dst, W: e.W})
	g.appendHalf(g.in, g.inIdx, e.Dst, Half{To: e.Src, W: e.W})
	g.m++
	return true
}

// DeleteEdge removes src->dst if present. It reports whether an edge was
// removed and returns its weight.
func (g *Streaming) DeleteEdge(src, dst VertexID) (Weight, bool) {
	w, ok := g.removeHalfIdx(g.out, g.outIdx, src, dst)
	if !ok {
		return 0, false
	}
	if _, ok := g.removeHalfIdx(g.in, g.inIdx, dst, src); !ok {
		panic(fmt.Sprintf("graph: inconsistent adjacency for %d->%d", src, dst))
	}
	g.m--
	return w, true
}

// ApplyBatch applies every update in order, sequentially. Additions of
// existing edges and deletions of missing edges are ignored (idempotent
// streams), matching how the paper's artifact samples update streams from
// static edge lists. It returns the updates that actually took effect.
func (g *Streaming) ApplyBatch(b Batch) Batch {
	applied := b[:0:0]
	for _, u := range b {
		if u.Del {
			if w, ok := g.DeleteEdge(u.Src, u.Dst); ok {
				u.W = w
				applied = append(applied, u)
			}
		} else {
			if g.AddEdge(u.Edge) {
				applied = append(applied, u)
			}
		}
	}
	return applied
}

// Clone returns a deep copy of the graph. Used by tests that compare
// incremental engines against static recomputation on identical topologies.
func (g *Streaming) Clone() *Streaming {
	c := &Streaming{
		out:      make([][]Half, len(g.out)),
		in:       make([][]Half, len(g.in)),
		outIdx:   make([]map[VertexID]int32, len(g.out)),
		inIdx:    make([]map[VertexID]int32, len(g.in)),
		m:        g.m,
		noIdx:    g.noIdx,
		hubBuild: g.hubBuild,
		hubDrop:  g.hubDrop,
	}
	for i, l := range g.out {
		c.out[i] = append([]Half(nil), l...)
	}
	for i, l := range g.in {
		c.in[i] = append([]Half(nil), l...)
	}
	cloneIdx := func(dst, src []map[VertexID]int32) {
		for i, m := range src {
			if m == nil {
				continue
			}
			cp := make(map[VertexID]int32, len(m))
			for k, v := range m {
				cp[k] = v
			}
			dst[i] = cp
		}
	}
	cloneIdx(c.outIdx, g.outIdx)
	cloneIdx(c.inIdx, g.inIdx)
	return c
}

// Edges returns all edges in deterministic (src, dst) order. The outer
// loop already groups edges by ascending source, so only each vertex's
// span needs ordering — insertion sort on the typically tiny spans instead
// of one reflective sort over the whole edge list (the difference is
// visible in the snapshot path, which calls this per checkpoint).
func (g *Streaming) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for v := range g.out {
		start := len(es)
		for _, h := range g.out[v] {
			es = append(es, Edge{Src: VertexID(v), Dst: h.To, W: h.W})
		}
		span := es[start:]
		if len(span) > 32 {
			sort.Slice(span, func(i, j int) bool { return span[i].Dst < span[j].Dst })
			continue
		}
		for i := 1; i < len(span); i++ {
			for j := i; j > 0 && span[j].Dst < span[j-1].Dst; j-- {
				span[j], span[j-1] = span[j-1], span[j]
			}
		}
	}
	return es
}

// Validate checks internal consistency (every out-edge has a matching
// in-edge and vice versa, no duplicates, hub indexes agree with the lists)
// and returns an error describing the first violation. It is O(N + M) in
// allocations-aside work — one epoch-stamped scratch set serves every
// vertex instead of a fresh map per vertex — and intended for tests.
func (g *Streaming) Validate() error {
	type key struct{ s, d VertexID }
	fwd := make(map[key]Weight, g.m)
	seen := dense.NewSet[VertexID](g.NumVertices())
	n := 0
	for v := range g.out {
		seen.Clear()
		for _, h := range g.out[v] {
			if int(h.To) >= g.NumVertices() {
				return fmt.Errorf("out-edge %d->%d exceeds vertex range", v, h.To)
			}
			if !seen.Add(h.To) {
				return fmt.Errorf("duplicate out-edge %d->%d", v, h.To)
			}
			fwd[key{VertexID(v), h.To}] = h.W
			n++
		}
		if err := validateIdx(g.out[v], g.outIdx[v], VertexID(v), "out"); err != nil {
			return err
		}
	}
	if n != g.m {
		return fmt.Errorf("edge count mismatch: counted %d, recorded %d", n, g.m)
	}
	rev := 0
	for v := range g.in {
		seen.Clear()
		for _, h := range g.in[v] {
			if !seen.Add(h.To) {
				return fmt.Errorf("duplicate in-edge %d<-%d", v, h.To)
			}
			w, ok := fwd[key{h.To, VertexID(v)}]
			if !ok {
				return fmt.Errorf("in-edge %d<-%d has no out counterpart", v, h.To)
			}
			if w != h.W {
				return fmt.Errorf("weight mismatch on %d->%d: out %v in %v", h.To, v, w, h.W)
			}
			rev++
		}
		if err := validateIdx(g.in[v], g.inIdx[v], VertexID(v), "in"); err != nil {
			return err
		}
	}
	if rev != g.m {
		return fmt.Errorf("in-edge count mismatch: counted %d, recorded %d", rev, g.m)
	}
	return nil
}

// validateIdx checks that a hub index, when present, is an exact
// neighbour->position bijection for the list it covers.
func validateIdx(list []Half, idx map[VertexID]int32, v VertexID, dir string) error {
	if idx == nil {
		return nil
	}
	if len(idx) != len(list) {
		return fmt.Errorf("%s-index of %d has %d entries for %d halves", dir, v, len(idx), len(list))
	}
	for i, h := range list {
		if p, ok := idx[h.To]; !ok || p != int32(i) {
			return fmt.Errorf("%s-index of %d maps %d to %d, list has it at %d", dir, v, h.To, p, i)
		}
	}
	return nil
}
