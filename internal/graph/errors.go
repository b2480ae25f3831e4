package graph

import (
	"fmt"
	"math"
)

// BatchError reports the first malformed update in a batch. Update streams
// come from untrusted sources (files, sockets, generators outside this
// module), so the public apply paths validate them and degrade gracefully
// instead of panicking; panics remain reserved for true internal invariants
// such as out/in adjacency divergence.
type BatchError struct {
	Index  int    // position of the offending update within the batch
	Update Update // the update itself
	Reason string
}

func (e *BatchError) Error() string {
	op := "add"
	if e.Update.Del {
		op = "del"
	}
	return fmt.Sprintf("graph: bad update [%d] %s %d->%d (w=%v): %s",
		e.Index, op, e.Update.Src, e.Update.Dst, e.Update.W, e.Reason)
}

// CheckBatch validates a batch against this graph: vertex IDs must be in
// range and addition weights finite. It returns a *BatchError for the first
// violation, or nil. Engines call this before mutating any state, so a
// malformed stream is rejected atomically.
func (g *Streaming) CheckBatch(b Batch) error {
	n := VertexID(g.NumVertices())
	for i, u := range b {
		switch {
		case u.Src >= n:
			return &BatchError{Index: i, Update: u, Reason: fmt.Sprintf("src out of range [0,%d)", n)}
		case u.Dst >= n:
			return &BatchError{Index: i, Update: u, Reason: fmt.Sprintf("dst out of range [0,%d)", n)}
		case !u.Del && (math.IsNaN(u.W) || math.IsInf(u.W, 0)):
			return &BatchError{Index: i, Update: u, Reason: "non-finite weight"}
		}
	}
	return nil
}
