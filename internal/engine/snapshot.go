package engine

import (
	"slices"

	"repro/internal/graph"
)

// StateSnapshot is an immutable point-in-time copy of a selective engine's
// converged state, taken at a batch boundary. The serving layer publishes
// one per applied batch through an atomic pointer, so any number of readers
// can answer point lookups, top-k scans, and delta subscriptions without
// locking the engine — and without ever observing a half-applied batch.
type StateSnapshot struct {
	Seq    uint64 // sequence of the last batch folded into this state
	Vals   []float64
	Parent []int32
}

// VertexValue pairs a vertex with its value in some snapshot.
type VertexValue struct {
	V   graph.VertexID
	Val float64
}

// StateSnapshot captures the engine's current converged state under seq.
// Call only at a batch boundary (the engine quiescent); the returned copy
// is then safe to read concurrently with later batches.
func (e *Selective) StateSnapshot(seq uint64) *StateSnapshot {
	vals, parent := e.SnapshotState()
	return &StateSnapshot{Seq: seq, Vals: vals, Parent: parent}
}

// NumVertices returns the vertex-space size of the snapshot.
func (s *StateSnapshot) NumVertices() int { return len(s.Vals) }

// Value returns v's value and key-edge parent, with ok=false when v is out
// of range.
func (s *StateSnapshot) Value(v graph.VertexID) (val float64, parent int32, ok bool) {
	if int(v) >= len(s.Vals) {
		return 0, -1, false
	}
	return s.Vals[v], s.Parent[v], true
}

// TopK returns the k vertices whose values rank best under better (the
// algorithm's own ordering: smallest distance for SSSP, widest path for
// SSWP), best first, ties broken by vertex id for determinism. It keeps a
// k-entry heap, O(N log k), instead of sorting all N vertices.
func (s *StateSnapshot) TopK(k int, better func(a, b float64) bool) []VertexValue {
	if k <= 0 {
		return nil
	}
	k = min(k, len(s.Vals))
	ahead := func(a, b VertexValue) bool {
		if a.Val != b.Val {
			return better(a.Val, b.Val)
		}
		return a.V < b.V
	}
	// h holds the k best seen so far as a heap with the worst of them at
	// h[0]; a later vertex enters only by displacing it.
	h := make([]VertexValue, 0, k)
	for v, val := range s.Vals {
		x := VertexValue{V: graph.VertexID(v), Val: val}
		if len(h) < k {
			h = append(h, x)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !ahead(h[p], h[i]) {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
			continue
		}
		if !ahead(x, h[0]) {
			continue
		}
		h[0] = x
		for i := 0; ; {
			c := 2*i + 1
			if c >= k {
				break
			}
			if c+1 < k && ahead(h[c], h[c+1]) {
				c++ // the worse child
			}
			if !ahead(h[i], h[c]) {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	slices.SortFunc(h, func(a, b VertexValue) int {
		switch {
		case ahead(a, b):
			return -1
		case ahead(b, a):
			return 1
		}
		return 0
	})
	return h
}

// Diff lists every vertex whose value differs from prev (nil prev means
// everything), in vertex order — the delta stream a subscriber sees as
// flows reconverge after a batch.
func (s *StateSnapshot) Diff(prev *StateSnapshot) []VertexValue {
	var out []VertexValue
	for v, val := range s.Vals {
		if prev != nil && v < len(prev.Vals) && prev.Vals[v] == val {
			continue
		}
		out = append(out, VertexValue{V: graph.VertexID(v), Val: val})
	}
	return out
}
