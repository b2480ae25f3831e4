package engine

import "repro/internal/graph"

// StateSnapshot is a flat copy of a published State: Vals and Parent
// indexed by vertex. State.Flat is the only way one is made, one copy per
// chunk, O(N); readers on the serving path use the chunked State itself.
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

// StateSnapshot publishes the engine's current converged state under seq
// and flattens it. Call only at a batch boundary (the engine quiescent);
// the returned copy is then safe to read concurrently with later batches.
func (e *Selective) StateSnapshot(seq uint64) *StateSnapshot { return e.Publish(seq).Flat() }

// TopK returns the k vertices whose values rank best under better (the
// algorithm's own ordering: smallest distance for SSSP, widest path for
// SSWP), best first, ties broken by vertex id for determinism. It keeps a
// k-entry heap, O(N log k), instead of sorting all N vertices.
func (s *StateSnapshot) TopK(k int, better func(a, b float64) bool) []VertexValue {
	h := newTopHeap(min(k, len(s.Vals)), better)
	if h == nil {
		return nil
	}
	for v, val := range s.Vals {
		if x := (VertexValue{V: graph.VertexID(v), Val: val}); !h.full() || h.ahead(x, h.h[0]) {
			h.insert(x)
		}
	}
	return h.sorted()
}
