package graph

import (
	"slices"
	"sync/atomic"
)

// Frozen is an immutable view of a Streaming graph's out-adjacency as it
// stood at Freeze: the background snapshot writer encodes one while the
// graph keeps taking batches. It costs O(N) — a copy of the N out-list
// headers — and shares every element with the live graph.
//
// Copy-on-write keeps the shared elements unchanged. Appends only ever
// write past a list's length at Freeze, so they leave the view alone. The
// one in-place write, the swap-delete in removeHalfIdx, first copies a list
// that is still shared with a view — once per list per Freeze. In-lists are
// not part of the view and are never copied.
type Frozen struct {
	g        *Streaming
	out      [][]Half
	m        int
	released atomic.Bool
}

// Freeze returns a frozen view of the current out-adjacency. Call it at a
// batch boundary, from the goroutine that mutates the graph; the view may
// then be read from any goroutine until Release.
func (g *Streaming) Freeze() *Frozen {
	if g.owned == nil {
		g.owned = make([]bool, len(g.out))
	} else {
		clear(g.owned)
	}
	g.views.Add(1)
	return &Frozen{g: g, out: slices.Clone(g.out), m: g.m}
}

// Release ends the view: once no view is live the graph stops copying
// lists before it deletes from them. The view must not be read afterwards.
// Releasing twice is harmless.
func (f *Frozen) Release() {
	if f.released.CompareAndSwap(false, true) {
		f.g.views.Add(-1)
	}
}

// NumVertices returns N.
func (f *Frozen) NumVertices() int { return len(f.out) }

// NumEdges returns the edge count at Freeze.
func (f *Frozen) NumEdges() int { return f.m }

// SortedSpans calls fn for every vertex with out-edges, in ascending order,
// with its out-list ordered by destination. span aliases scratch that the
// next call reuses; fn must not retain it. The first error fn returns stops
// the walk and is returned.
func (f *Frozen) SortedSpans(fn func(src VertexID, span []Half) error) error {
	return sortedSpans(f.out, fn)
}

// unshare gives u's out-list a private backing array when a live view may
// still read the current one — the copy-on-write half of Freeze, called by
// removeHalfIdx before it overwrites an element.
func (g *Streaming) unshare(u VertexID) {
	if g.views.Load() > 0 && !g.owned[u] {
		g.out[u] = slices.Clone(g.out[u])
		g.owned[u] = true
	}
}

// sortedSpans is the one sorted-edge walk: Edges and Frozen.SortedSpans
// both use it, so a snapshot's edge order and Edges' agree by construction.
// Scratch is O(max degree) and lives for one walk.
func sortedSpans(out [][]Half, fn func(src VertexID, span []Half) error) error {
	var s spanSorter
	for v, l := range out {
		if len(l) == 0 {
			continue
		}
		if err := fn(VertexID(v), s.sort(l)); err != nil {
			return err
		}
	}
	return nil
}

// insertionMax is the longest list spanSorter orders by insertion sort;
// above it an LSD radix sort's fixed cost pays for itself.
const insertionMax = 32

// spanSorter orders one out-list by destination in retained scratch.
type spanSorter struct{ a, b []Half }

// sort returns a copy of list ordered by To, aliasing the sorter's scratch.
// Destinations within one list are distinct, so stability does not matter.
func (s *spanSorter) sort(list []Half) []Half {
	n := len(list)
	s.a = append(s.a[:0], list...)
	a := s.a
	if n <= insertionMax {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && a[j].To < a[j-1].To; j-- {
				a[j], a[j-1] = a[j-1], a[j]
			}
		}
		return a
	}
	s.b = grow(s.b, n)
	b := s.b
	// One counting pass fills all four byte histograms; a byte position on
	// which every destination agrees is skipped.
	var count [4][256]int32
	for _, h := range a {
		count[0][h.To&0xff]++
		count[1][h.To>>8&0xff]++
		count[2][h.To>>16&0xff]++
		count[3][h.To>>24]++
	}
	for p := range count {
		c := &count[p]
		shift := 8 * p
		if int(c[a[0].To>>shift&0xff]) == n {
			continue
		}
		var sum int32
		for d, k := range c {
			c[d], sum = sum, sum+k
		}
		for _, h := range a {
			d := h.To >> shift & 0xff
			b[c[d]] = h
			c[d]++
		}
		a, b = b, a
	}
	return a
}
