package engine

import (
	"slices"
	"sync/atomic"

	"repro/internal/graph"
)

// chunkSize is the number of vertices one state chunk holds.
const chunkSize = 64

// chunk is chunkSize consecutive vertices' values and key-edge parents.
// Once a root reaches it, nothing writes it again.
type chunk struct {
	vals   [chunkSize]float64
	parent [chunkSize]int32
	// lo and hi are the smallest and largest of the chunk's values, the
	// bounds TopK skips the chunk by.
	lo, hi float64
}

// State is an immutable point-in-time view of an engine's converged state,
// published at a batch boundary: a root table of pointers to fixed-size
// chunks in vertex order. Consecutive roots share every chunk the batches
// between them did not change, so a publish costs O(N/chunkSize) for the
// table plus O(chunkSize) per changed chunk, and Diff skips shared chunks
// by pointer. The serving layer publishes one per applied batch through an
// atomic pointer, so any number of readers answer point lookups, top-k
// scans and delta subscriptions without locking the engine and without
// ever observing a half-applied batch; the WAL's snapshot writer encodes
// the same root off the applier.
type State struct {
	Seq    uint64 // sequence of the last batch folded into this state
	n      int
	chunks []*chunk
}

// NumVertices returns the vertex-space size of the state.
func (s *State) NumVertices() int { return s.n }

// Value returns v's value and key-edge parent, with ok=false when v is out
// of range.
func (s *State) Value(v graph.VertexID) (val float64, parent int32, ok bool) {
	if int(v) >= s.n {
		return 0, -1, false
	}
	c, i := s.chunks[v/chunkSize], v%chunkSize
	return c.vals[i], c.parent[i], true
}

// span returns the vertex range [lo, hi) chunk ci holds.
func (s *State) span(ci int) (lo, hi int) {
	lo = ci * chunkSize
	return lo, min(lo+chunkSize, s.n)
}

// Flat materializes the state as flat value and parent arrays: one copy
// per chunk, O(N). It is the one way every flat StateSnapshot is taken.
func (s *State) Flat() *StateSnapshot {
	f := &StateSnapshot{Seq: s.Seq, Vals: make([]float64, s.n), Parent: make([]int32, s.n)}
	for ci, c := range s.chunks {
		lo, hi := s.span(ci)
		copy(f.Vals[lo:hi], c.vals[:])
		copy(f.Parent[lo:hi], c.parent[:])
	}
	return f
}

// TopK returns the k vertices whose values rank best under better, best
// first, ties broken by vertex id; better must order values by < or by >.
// Once k candidates are held, a chunk whose lo and hi both rank strictly
// behind the worst of them cannot contribute and is skipped unread. A
// chunk that ties it is scanned, and so is one holding a NaN, whose
// bounds compare with nothing.
func (s *State) TopK(k int, better func(a, b float64) bool) []VertexValue {
	h := newTopHeap(min(k, s.n), better)
	if h == nil {
		return nil
	}
	for ci, c := range s.chunks {
		if h.full() && better(h.h[0].Val, c.lo) && better(h.h[0].Val, c.hi) {
			continue // h[0] is the worst held entry
		}
		lo, hi := s.span(ci)
		for i, val := range c.vals[:hi-lo] {
			if x := (VertexValue{V: graph.VertexID(lo + i), Val: val}); !h.full() || h.ahead(x, h.h[0]) {
				h.insert(x)
			}
		}
	}
	return h.sorted()
}

// Diff lists every vertex whose value differs from prev (nil prev means
// everything), in vertex order: the delta stream a subscriber sees as flows
// reconverge after a batch. A chunk prev shares is skipped by pointer, so
// the walk costs O(N/chunkSize) plus the chunks that changed.
func (s *State) Diff(prev *State) []VertexValue {
	var out []VertexValue
	for ci, c := range s.chunks {
		var pc *chunk
		if prev != nil && ci < len(prev.chunks) {
			pc = prev.chunks[ci]
		}
		if c == pc {
			continue
		}
		lo, hi := s.span(ci)
		for i, val := range c.vals[:hi-lo] {
			if pc != nil && lo+i < prev.n && pc.vals[i] == val {
				continue
			}
			out = append(out, VertexValue{V: graph.VertexID(lo + i), Val: val})
		}
	}
	return out
}

// publisher is the publish half an engine embeds: one dirty flag per chunk
// and the chunk table of the last publish. The kernel marks a vertex's
// chunk whenever it writes the vertex's value (by the batch's end every
// parent write has ridden with one); publish rebuilds only the marked
// chunks. Workers mark concurrently, so the flags are
// atomic; mark loads before it stores so a hot chunk's flag is written
// once per batch rather than once per write.
type publisher struct {
	n      int // vertices
	dirty  []atomic.Bool
	chunks []*chunk // the last published table; nil before the first
}

// initPublisher sizes the flags for n vertices and marks every chunk, so
// the first publish builds them all (construction and restore).
func (p *publisher) initPublisher(n int) {
	p.n = n
	p.dirty = make([]atomic.Bool, (n+chunkSize-1)/chunkSize)
	for i := range p.dirty {
		p.dirty[i].Store(true)
	}
}

// mark records that v's value or parent changed since the last publish.
func (p *publisher) mark(v uint32) {
	if d := &p.dirty[v/chunkSize]; !d.Load() {
		d.Store(true)
	}
}

// publish returns a root under seq holding the current state. Only a
// marked chunk is rebuilt, by fill (which writes vertices [lo, hi) into
// the chunk's vals and parent), into a fresh chunk in a cloned table;
// every other chunk is shared with the previous root. Call it only at a
// batch boundary.
func (p *publisher) publish(seq uint64, fill func(c *chunk, lo, hi int)) *State {
	cloned := false
	for ci := range p.dirty {
		if !p.dirty[ci].Load() {
			continue
		}
		if !cloned {
			if p.chunks == nil {
				p.chunks = make([]*chunk, len(p.dirty))
			} else {
				p.chunks = slices.Clone(p.chunks)
			}
			cloned = true
		}
		lo := ci * chunkSize
		hi := min(lo+chunkSize, p.n)
		c := new(chunk)
		fill(c, lo, hi)
		c.lo, c.hi = c.vals[0], c.vals[0]
		for _, x := range c.vals[1 : hi-lo] {
			c.lo, c.hi = min(c.lo, x), max(c.hi, x)
		}
		p.chunks[ci] = c
		p.dirty[ci].Store(false)
	}
	return &State{Seq: seq, n: p.n, chunks: p.chunks}
}

// topHeap selects the k best VertexValues under an ordering, ties broken
// by vertex id: a k-entry heap with the worst held entry at h[0], which a
// later entry displaces only by ranking ahead of it. O(N log k) over N
// candidates instead of a full sort.
type topHeap struct {
	k      int
	better func(a, b float64) bool
	h      []VertexValue
}

// newTopHeap returns a heap for the best k, or nil when k <= 0.
func newTopHeap(k int, better func(a, b float64) bool) *topHeap {
	if k <= 0 {
		return nil
	}
	return &topHeap{k: k, better: better, h: make([]VertexValue, 0, k)}
}

// ahead reports whether a ranks before b.
func (t *topHeap) ahead(a, b VertexValue) bool {
	if a.Val != b.Val {
		return t.better(a.Val, b.Val)
	}
	return a.V < b.V
}

func (t *topHeap) full() bool { return len(t.h) == t.k }

// insert adds x, displacing the worst held entry once the heap is full.
// The scan loops call it only for an x that enters: the heap is not full
// or x ranks ahead of h[0]. They test that inline (full and ahead inline,
// a method holding the test would not), so a vertex that does not enter
// costs one call of better.
func (t *topHeap) insert(x VertexValue) {
	h := t.h
	if len(h) < t.k {
		h = append(h, x)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !t.ahead(h[p], h[i]) {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		t.h = h
		return
	}
	h[0] = x
	for i := 0; ; {
		c := 2*i + 1
		if c >= t.k {
			break
		}
		if c+1 < t.k && t.ahead(h[c], h[c+1]) {
			c++ // the worse child
		}
		if !t.ahead(h[i], h[c]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// sorted returns the held entries best first.
func (t *topHeap) sorted() []VertexValue {
	slices.SortFunc(t.h, func(a, b VertexValue) int {
		switch {
		case t.ahead(a, b):
			return -1
		case t.ahead(b, a):
			return 1
		}
		return 0
	})
	return t.h
}
