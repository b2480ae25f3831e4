// Package graph provides the streaming-graph substrate used by every engine
// in the GraphFly reproduction: a mutable directed weighted multigraph-free
// adjacency structure supporting batched edge additions and deletions, plus
// frozen read-only views of it (Freeze) for snapshot writers.
//
// Terminology follows the paper: a streaming graph starts from an initial
// graph G0 and evolves by applying batches of edge updates. Vertex IDs are
// dense integers in [0, N). Edges are directed; algorithms that need
// undirected semantics (e.g. connected components) insert both directions.
package graph

import (
	"fmt"
	"slices"
	"sync/atomic"

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
// Every edge is stored twice, as an out-half in out[src] and an in-half in
// in[dst], and each half records where its partner sits: an out-half's twin
// is the position of its in-half in in[To], an in-half's twin the position
// of its out-half in out[To]. The twin fills the padding between To and W,
// so a Half stays 16 bytes.
type Half struct {
	To   VertexID
	twin uint32
	W    Weight
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

// HubThreshold is the degree at which a vertex's out-list gains a
// neighbour->position hash index, making HasEdge/AddEdge/DeleteEdge O(1)
// amortized on that list regardless of skew. Below the threshold a linear
// scan over a short cache-resident slice is faster than a hash probe; 64
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
// Both thresholds apply to out-lists only: in-lists carry no index.
type Options struct {
	// HubThreshold is the out-degree at which an out-list gains its
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
// supporting O(1) amortized edge addition, deletion, and lookup: out-lists
// of high-degree (hub) vertices carry an incrementally maintained
// neighbour->position index, low-degree out-lists are scanned, and a
// deletion reaches the in-half through the out-half's twin, so in-lists
// are never searched and carry no index.
//
// Streaming is not safe for concurrent mutation of the same vertex's list;
// ApplyBatchParallel hashes vertices to workers so each list is mutated by
// exactly one goroutine per pass — out-lists (and out-indexes) by the
// worker their source hashes to, in-lists by the worker their destination
// hashes to — and each twin word by the worker that owns its partner's
// vertex (parallel.go).
type Streaming struct {
	out [][]Half
	in  [][]Half
	// outIdx[v] maps a neighbour to its position in out[v]. Non-nil only
	// while v is an out-hub.
	outIdx []*hubIndex
	m      int
	noIdx  bool // hub indexing disabled (the linear-scan reference in tests)
	// hubBuild/hubDrop are this graph's hysteresis band (Options; defaults
	// HubThreshold and HubThreshold/4).
	hubBuild int
	hubDrop  int
	// scr is ApplyBatchParallel's bucketing scratch, kept across batches.
	scr applyScratch
	// views counts live Frozen views; owned[v] records that out[v] was
	// copied since the latest Freeze, so no view shares its array (frozen.go).
	views atomic.Int32
	owned []bool
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
		outIdx:   make([]*hubIndex, n),
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
	clear(g.outIdx)
}

// FromEdges builds a streaming graph with n vertices from an edge list.
// Duplicate (src,dst) pairs are dropped (first wins) so the graph is simple.
func FromEdges(n int, edges []Edge) *Streaming {
	return FromEdgesOpts(n, edges, Options{})
}

// FromEdgesOpts is FromEdges with explicit tuning options. It builds in
// bulk, but the result is the graph AddEdge would build one edge at a time
// in input order: the same list contents, twins and order, the same
// per-list cap (DESIGN.md §4.8 "Bulk load"), the same hub indexes.
func FromEdgesOpts(n int, edges []Edge, o Options) *Streaming {
	g := NewStreamingOpts(n, o)
	// ladder holds the capacities one-at-a-time append gives a []Half grown
	// from nil, asked of the runtime rather than copied from its growth
	// formula, which differs between Go releases.
	ladder := []int{0}
	appendCap := func(d int) int {
		for c := ladder[len(ladder)-1]; c < d; c = ladder[len(ladder)-1] {
			ladder = append(ladder, cap(append(make([]Half, c), Half{})))
		}
		i, _ := slices.BinarySearch(ladder, d)
		return ladder[i]
	}
	// Stable counting sort by source: after the scatter, end[v] is the end
	// of v's run in sorted and end[v-1] its start.
	type sortedHalf struct{ to, i VertexID } // destination, input index
	end := make([]int, n+1)
	for _, e := range edges {
		end[e.Src+1]++
	}
	for v := 1; v <= n; v++ {
		end[v] += end[v-1]
	}
	sorted := make([]sortedHalf, len(edges))
	for i, e := range edges {
		sorted[end[e.Src]] = sortedHalf{e.Dst, VertexID(i)}
		end[e.Src]++
	}
	// First wins within each run; keep marks the survivors by input index.
	keep := make([]bool, len(edges))
	inDeg := make([]int, n)
	seen := dense.NewSet[VertexID](n)
	start := 0
	for v := 0; v < n; v++ {
		seen.Clear()
		d := 0
		for _, s := range sorted[start:end[v]] {
			if seen.Add(s.to) {
				keep[s.i] = true
				inDeg[s.to]++
				d++
			}
		}
		if d > 0 {
			g.out[v] = make([]Half, d, appendCap(d))
		}
		g.m += d
		start = end[v]
	}
	for v, d := range inDeg {
		if d > 0 {
			g.in[v] = make([]Half, d, appendCap(d))
		}
	}
	// Out-lists and in-lists both hold the survivors in input order, so one
	// input-order pass with a position cursor per list writes every half,
	// twin included, straight to its final place.
	outAt := make([]uint32, n)
	inAt := make([]uint32, n)
	for i, e := range edges {
		if keep[i] {
			p, q := outAt[e.Src], inAt[e.Dst]
			g.out[e.Src][p] = Half{To: e.Dst, twin: q, W: e.W}
			g.in[e.Dst][q] = Half{To: e.Src, twin: p, W: e.W}
			outAt[e.Src], inAt[e.Dst] = p+1, q+1
		}
	}
	g.SetHubThresholds(g.hubBuild, g.hubDrop) // each hub index built once, at its final size
	return g
}

// HubThresholds returns the graph's current hysteresis band.
func (g *Streaming) HubThresholds() (build, drop int) { return g.hubBuild, g.hubDrop }

// SetHubThresholds retunes the out-lists' hysteresis band on a live graph:
// indexes are built for every out-list at or above the new build threshold
// and dropped for every out-list below the new drop floor (lists in between
// keep whatever they had — hysteresis). drop <= 0 means build/4. A no-op
// when hub indexing is disabled. Not safe concurrently with mutation.
func (g *Streaming) SetHubThresholds(build, drop int) {
	b, d := Options{HubThreshold: build, HubDropThreshold: drop}.normalize()
	g.hubBuild, g.hubDrop = b, d
	if g.noIdx {
		return
	}
	for v, l := range g.out {
		switch {
		case g.outIdx[v] == nil && len(l) >= b:
			g.outIdx[v] = newHubIndex(l)
		case g.outIdx[v] != nil && len(l) < d:
			g.outIdx[v] = nil
		}
	}
}

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
func lookupHalf(list []Half, idx *hubIndex, to VertexID) int32 {
	if idx != nil {
		return idx.get(to)
	}
	for i, h := range list {
		if h.To == to {
			return int32(i)
		}
	}
	return -1
}

// appendOut appends h to out[u], maintains u's hub index — an existing
// index learns the new position, and a list reaching the build threshold
// gets one built (O(degree) once, amortized O(1) per add) — and returns
// h's position.
func (g *Streaming) appendOut(u VertexID, h Half) uint32 {
	g.out[u] = append(g.out[u], h)
	l := g.out[u]
	p := len(l) - 1
	if idx := g.outIdx[u]; idx != nil {
		idx.set(h.To, int32(p))
	} else if !g.noIdx && len(l) >= g.hubBuild {
		g.outIdx[u] = newHubIndex(l)
	}
	return uint32(p)
}

// linkOut points the partner of out[u][p] back at p: its in-half, or,
// while ApplyBatchParallel's first pass has that in-half still to add, its
// addition's pos entry.
func (g *Streaming) linkOut(u VertexID, p uint32) {
	h := g.out[u][p]
	if h.twin&pending != 0 {
		g.scr.pos[h.twin&^pending] = p
	} else {
		g.in[h.To][h.twin].twin = p
	}
}

// linkIn points the partner of in[v][q] back at q: its out-half, or, while
// ApplyBatchParallel's second pass has that out-half deleted, the kill
// entry of the deletion still to come.
func (g *Streaming) linkIn(v VertexID, q uint32) {
	h := g.in[v][q]
	if h.twin&pending != 0 {
		g.scr.kill[h.twin&^pending] = q
	} else {
		g.out[h.To][h.twin].twin = q
	}
}

// appendIn appends h to in[v] and links its partner to it.
func (g *Streaming) appendIn(v VertexID, h Half) {
	g.in[v] = append(g.in[v], h)
	g.linkIn(v, uint32(len(g.in[v])-1))
}

// removeOut swap-deletes out[u][p] and returns it. The half moved into p
// has its partner relinked, and u's index follows the move, dropped under
// the hysteresis floor. A list that a live Frozen view may share is copied
// before this first in-place write.
func (g *Streaming) removeOut(u VertexID, p int32) Half {
	g.unshare(u)
	l := g.out[u]
	h := l[p]
	last := len(l) - 1
	l[p] = l[last]
	g.out[u] = l[:last]
	if int(p) != last {
		g.linkOut(u, uint32(p))
	}
	if idx := g.outIdx[u]; idx != nil {
		idx.del(h.To)
		if int(p) != last {
			idx.set(l[p].To, p)
		}
		if last < g.hubDrop {
			g.outIdx[u] = nil
		}
	}
	return h
}

// removeIn swap-deletes in[v][q] and relinks the partner of the half moved
// into q.
func (g *Streaming) removeIn(v VertexID, q uint32) {
	l := g.in[v]
	last := len(l) - 1
	l[q] = l[last]
	g.in[v] = l[:last]
	if int(q) != last {
		g.linkIn(v, q)
	}
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
	p := g.appendOut(e.Src, Half{To: e.Dst, W: e.W})
	g.appendIn(e.Dst, Half{To: e.Src, twin: p, W: e.W})
	g.m++
	return true
}

// DeleteEdge removes src->dst if present. It reports whether an edge was
// removed and returns its weight.
func (g *Streaming) DeleteEdge(src, dst VertexID) (Weight, bool) {
	p := lookupHalf(g.out[src], g.outIdx[src], dst)
	if p < 0 {
		return 0, false
	}
	h := g.removeOut(src, p)
	g.removeIn(dst, h.twin)
	g.m--
	return h.W, true
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
		outIdx:   make([]*hubIndex, len(g.out)),
		m:        g.m,
		noIdx:    g.noIdx,
		hubBuild: g.hubBuild,
		hubDrop:  g.hubDrop,
	}
	for i, l := range g.out {
		c.out[i] = append([]Half(nil), l...)
		if idx := g.outIdx[i]; idx != nil {
			c.outIdx[i] = idx.clone()
		}
	}
	for i, l := range g.in {
		c.in[i] = append([]Half(nil), l...)
	}
	return c
}

// Edges returns all edges in deterministic (src, dst) order, through the
// same sorted walk a frozen view's snapshot encoder uses.
func (g *Streaming) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	sortedSpans(g.out, func(v VertexID, span []Half) error {
		for _, h := range span {
			es = append(es, Edge{Src: v, Dst: h.To, W: h.W})
		}
		return nil
	})
	return es
}

// Validate checks internal consistency — no out-list holds a destination
// twice, the twins pair every out-half with exactly one in-half of the same
// edge and weight and every in-half with one out-half, and the hub indexes
// agree with the lists — and returns an error describing the first
// violation. It is O(N + M) — one epoch-stamped scratch set serves every
// vertex — and intended for tests.
func (g *Streaming) Validate() error {
	n := g.NumVertices()
	seen := dense.NewSet[VertexID](n)
	fwd := 0
	for v, l := range g.out {
		seen.Clear()
		for i, h := range l {
			if int(h.To) >= n {
				return fmt.Errorf("out-edge %d->%d exceeds vertex range", v, h.To)
			}
			if !seen.Add(h.To) {
				return fmt.Errorf("duplicate out-edge %d->%d", v, h.To)
			}
			in := g.in[h.To]
			if int(h.twin) >= len(in) || in[h.twin].To != VertexID(v) || in[h.twin].twin != uint32(i) {
				return fmt.Errorf("out-edge %d->%d: twin %d is not its in-half", v, h.To, h.twin)
			}
			if in[h.twin].W != h.W {
				return fmt.Errorf("weight mismatch on %d->%d: out %v in %v", v, h.To, h.W, in[h.twin].W)
			}
			fwd++
		}
		if err := validateIdx(l, g.outIdx[v], VertexID(v)); err != nil {
			return err
		}
	}
	if fwd != g.m {
		return fmt.Errorf("edge count mismatch: counted %d, recorded %d", fwd, g.m)
	}
	// Every out-half owns a distinct in-half, so equal counts leave no
	// in-half without an out-half.
	rev := 0
	for _, l := range g.in {
		rev += len(l)
	}
	if rev != g.m {
		return fmt.Errorf("in-edge count mismatch: counted %d, recorded %d", rev, g.m)
	}
	return nil
}

// validateIdx checks that an out-list's hub index, when present, is an
// exact neighbour->position bijection for the list it covers.
func validateIdx(list []Half, idx *hubIndex, v VertexID) error {
	if idx == nil {
		return nil
	}
	if idx.len() != len(list) {
		return fmt.Errorf("out-index of %d has %d entries for %d halves", v, idx.len(), len(list))
	}
	for i, h := range list {
		if p := idx.get(h.To); p != int32(i) {
			return fmt.Errorf("out-index of %d maps %d to %d, list has it at %d", v, h.To, p, i)
		}
	}
	return nil
}
