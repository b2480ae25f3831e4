package graph

// CSR is an immutable compressed-sparse-row snapshot of a graph, used by the
// static solvers and by the specialized layout builder. Both the out- and
// in-direction are materialized because selective refinement pulls over
// in-edges while propagation pushes over out-edges.
type CSR struct {
	N int
	M int

	OutPtr []int32
	OutDst []VertexID
	OutW   []Weight

	InPtr []int32
	InSrc []VertexID
	InW   []Weight
}

// ToCSR snapshots the streaming graph into freshly allocated arrays.
// Adjacency within each row preserves the streaming graph's current order
// (deterministic for a deterministic update sequence).
func (g *Streaming) ToCSR() *CSR {
	return g.ToCSRInto(new(CSR))
}

// ToCSRInto snapshots the streaming graph into c, reusing c's six backing
// arrays whenever their capacity suffices; per-batch snapshotting with a
// retained arena is therefore allocation-free at steady state. Aliasing
// hazard: the returned CSR is c itself, and any slices handed out from a
// previous snapshot (OutEdges/InEdges) are overwritten — callers must treat
// the arena's previous contents as dead. A nil c is equivalent to ToCSR.
func (g *Streaming) ToCSRInto(c *CSR) *CSR {
	if c == nil {
		c = new(CSR)
	}
	n := g.NumVertices()
	c.N, c.M = n, g.m
	c.OutPtr = grow(c.OutPtr, n+1)
	c.OutDst = grow(c.OutDst, g.m)
	c.OutW = grow(c.OutW, g.m)
	c.InPtr = grow(c.InPtr, n+1)
	c.InSrc = grow(c.InSrc, g.m)
	c.InW = grow(c.InW, g.m)
	pos := int32(0)
	for v := 0; v < n; v++ {
		c.OutPtr[v] = pos
		for _, h := range g.out[v] {
			c.OutDst[pos] = h.To
			c.OutW[pos] = h.W
			pos++
		}
	}
	c.OutPtr[n] = pos
	pos = 0
	for v := 0; v < n; v++ {
		c.InPtr[v] = pos
		for _, h := range g.in[v] {
			c.InSrc[pos] = h.To
			c.InW[pos] = h.W
			pos++
		}
	}
	c.InPtr[n] = pos
	return c
}

// grow returns a slice of length n, reusing s's backing array when it is
// large enough. Contents are not preserved.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// OutEdges returns the out-neighbour and weight slices of v.
func (c *CSR) OutEdges(v VertexID) ([]VertexID, []Weight) {
	lo, hi := c.OutPtr[v], c.OutPtr[v+1]
	return c.OutDst[lo:hi], c.OutW[lo:hi]
}

// InEdges returns the in-neighbour and weight slices of v.
func (c *CSR) InEdges(v VertexID) ([]VertexID, []Weight) {
	lo, hi := c.InPtr[v], c.InPtr[v+1]
	return c.InSrc[lo:hi], c.InW[lo:hi]
}

// OutDegree returns the out-degree of v.
func (c *CSR) OutDegree(v VertexID) int { return int(c.OutPtr[v+1] - c.OutPtr[v]) }

// InDegree returns the in-degree of v.
func (c *CSR) InDegree(v VertexID) int { return int(c.InPtr[v+1] - c.InPtr[v]) }
