// Package layout implements the paper's specialized graph data layout
// (§V-B, Fig 8): the vertex values of one dependency-flow are stored
// contiguously (Vidx/Vval with a Flow Pointer + Flow Offset per vertex),
// and the flow's edges are blocked the same way (Ptr/Eidx/Eval). Processing
// a flow then touches one dense region instead of scattering across the
// global arrays, which is where GraphFly's cache efficiency comes from.
//
// Store is the value side: values actually live in flow-blocked order, so
// the wall-clock effect is real, and every slot has a modeled address so
// the cache simulator sees the same locality (Fig 12, Fig 13). The
// scattered variant (ablation "GraphFly-w/o-SSF") indexes values by raw
// vertex ID.
//
// Values are stored as IEEE-754 bit patterns in uint64 words accessed with
// sync/atomic, because GraphFly's asynchronous engine lets a flow's owner
// write a value while neighbouring flows read it; atomics make those
// cross-flow reads race-free without locks. Add is the one plain accessor,
// for values only their owner touches.
package layout

import (
	"math"
	"sync/atomic"

	"repro/internal/dflow"
	"repro/internal/graph"
)

// Address-space bases for the cache model; regions never overlap for any
// realistic graph size (each region spans < 2^40 bytes).
const (
	ValueRegion  uint64 = 1 << 40
	EdgeRegion   uint64 = 1 << 41
	InEdgeRegion uint64 = 3 << 40 // disjoint slice between Edge and Meta
	MetaRegion   uint64 = 1 << 42
)

// Store holds one float64-vector value per vertex, either flow-blocked
// (the specialized layout) or scattered (raw vertex order).
type Store struct {
	dim  int
	n    int
	slot []int32  // vertex -> slot (identity when scattered)
	vidx []uint32 // slot -> vertex (the paper's V_idx)
	vals []uint64 // bit patterns, n*dim words
}

// NewFlowStore builds the specialized (flow-blocked) store: slots follow
// the partition's pack order, so a flow's values occupy one dense block.
func NewFlowStore(part *dflow.Partition, dim int) *Store {
	n := len(part.FlowOf)
	s := &Store{
		dim:  dim,
		n:    n,
		slot: make([]int32, n),
		vidx: make([]uint32, n),
		vals: make([]uint64, n*dim),
	}
	next := int32(0)
	for f := int32(0); int(f) < part.NumFlows(); f++ {
		for _, v := range part.Members(f) {
			s.slot[v] = next
			s.vidx[next] = v
			next++
		}
	}
	return s
}

// NewScatteredStore builds the ablation store: slot == vertex ID.
func NewScatteredStore(n, dim int) *Store {
	s := &Store{
		dim:  dim,
		n:    n,
		slot: make([]int32, n),
		vidx: make([]uint32, n),
		vals: make([]uint64, n*dim),
	}
	for v := 0; v < n; v++ {
		s.slot[v] = int32(v)
		s.vidx[v] = uint32(v)
	}
	return s
}

// Dim returns the per-vertex vector dimension.
func (s *Store) Dim() int { return s.dim }

// Len returns the number of vertices.
func (s *Store) Len() int { return s.n }

// Slot returns v's storage slot (the paper's Flow Pointer + Flow Offset
// resolved to a flat index).
func (s *Store) Slot(v uint32) int32 { return s.slot[v] }

// VertexAt returns the vertex stored in a slot (V_idx).
func (s *Store) VertexAt(slot int32) uint32 { return s.vidx[slot] }

// Get returns component 0 of v's value (the common scalar case).
func (s *Store) Get(v uint32) float64 { return s.GetAt(v, 0) }

// Set stores component 0 of v's value.
func (s *Store) Set(v uint32, x float64) { s.SetAt(v, 0, x) }

// GetAt returns component d of v's value.
func (s *Store) GetAt(v uint32, d int) float64 {
	return math.Float64frombits(atomic.LoadUint64(&s.vals[int(s.slot[v])*s.dim+d]))
}

// SetAt stores component d of v's value.
func (s *Store) SetAt(v uint32, d int, x float64) {
	atomic.StoreUint64(&s.vals[int(s.slot[v])*s.dim+d], math.Float64bits(x))
}

// AddAt atomically adds delta to component d of v's value via a CAS loop.
// The accumulative engines use it so concurrent flows can fold their edge
// deltas into a shared aggregate without locks.
func (s *Store) AddAt(v uint32, d int, delta float64) {
	p := &s.vals[int(s.slot[v])*s.dim+d]
	for {
		old := atomic.LoadUint64(p)
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(p, old, next) {
			return
		}
	}
}

// Add adds delta to component d of v's value with a plain read-modify-write.
// It is not atomic: only v's single writer may call it, and any other
// access to v must be ordered against it by other synchronization. The
// accumulative engine's owner-folded aggregates use it; AddAt is the
// concurrent form.
func (s *Store) Add(v uint32, d int, delta float64) {
	p := &s.vals[int(s.slot[v])*s.dim+d]
	*p = math.Float64bits(math.Float64frombits(*p) + delta)
}

// GetVec copies v's vector into dst (len >= dim) and returns it.
func (s *Store) GetVec(v uint32, dst []float64) []float64 {
	base := int(s.slot[v]) * s.dim
	for d := 0; d < s.dim; d++ {
		dst[d] = math.Float64frombits(atomic.LoadUint64(&s.vals[base+d]))
	}
	return dst[:s.dim]
}

// SetVec stores v's vector.
func (s *Store) SetVec(v uint32, src []float64) {
	base := int(s.slot[v]) * s.dim
	for d := 0; d < s.dim; d++ {
		atomic.StoreUint64(&s.vals[base+d], math.Float64bits(src[d]))
	}
}

// CopyFrom copies every vertex's vector out of old (same Len and Dim, any
// layout), slot to slot: the migration a repartition does. It must not run
// concurrently with writers of either store; readers of old are fine.
func (s *Store) CopyFrom(old *Store) {
	for at, v := range s.vidx {
		from := int(old.slot[v]) * s.dim
		copy(s.vals[at*s.dim:(at+1)*s.dim], old.vals[from:from+s.dim])
	}
}

// Fill sets every component of every vertex to x.
func (s *Store) Fill(x float64) {
	bits := math.Float64bits(x)
	for i := range s.vals {
		atomic.StoreUint64(&s.vals[i], bits)
	}
}

// Addr returns the modeled byte address of v's value for the cache
// simulator: dense within a flow under the specialized layout, strided by
// raw vertex ID otherwise.
func (s *Store) Addr(v uint32) uint64 {
	return ValueRegion + uint64(s.slot[v])*uint64(s.dim)*8
}

// EdgeIndex models the addresses of the edge arrays (Ptr/E_idx/E_val in
// Fig 8). Flow-blocked mode lays a flow's edges out contiguously in pack
// order; scattered mode uses global CSR order (by raw vertex ID). Rebuild
// after each batch so the model tracks the mutated adjacency.
type EdgeIndex struct {
	base   []int64 // vertex -> first edge slot
	region uint64  // address-space base
}

// edgeSlotBytes is the modeled size of one adjacency entry
// (4-byte E_idx + 8-byte E_val, padded).
const edgeSlotBytes = 16

// NewEdgeIndex builds the out-adjacency address model for g. part may be
// nil in scattered mode.
func NewEdgeIndex(g *graph.Streaming, part *dflow.Partition, flowBlocked bool) *EdgeIndex {
	return NewEdgeIndexInto(nil, g, part, flowBlocked)
}

// NewEdgeIndexInto is NewEdgeIndex rebuilding into prev's storage when its
// capacity suffices (nil prev allocates). Engines refresh the model after
// every batch; reuse makes that refresh allocation-free at steady state.
func NewEdgeIndexInto(prev *EdgeIndex, g *graph.Streaming, part *dflow.Partition, flowBlocked bool) *EdgeIndex {
	return newEdgeIndex(prev, g, part, flowBlocked, EdgeRegion, func(v graph.VertexID) int { return g.OutDegree(v) })
}

// NewInEdgeIndex builds the in-adjacency address model (selective
// refinement pulls over in-edges, which live in their own array).
func NewInEdgeIndex(g *graph.Streaming, part *dflow.Partition, flowBlocked bool) *EdgeIndex {
	return NewInEdgeIndexInto(nil, g, part, flowBlocked)
}

// NewInEdgeIndexInto is NewInEdgeIndex with prev's storage reused.
func NewInEdgeIndexInto(prev *EdgeIndex, g *graph.Streaming, part *dflow.Partition, flowBlocked bool) *EdgeIndex {
	return newEdgeIndex(prev, g, part, flowBlocked, InEdgeRegion, func(v graph.VertexID) int { return g.InDegree(v) })
}

func newEdgeIndex(prev *EdgeIndex, g *graph.Streaming, part *dflow.Partition, flowBlocked bool, region uint64, degree func(graph.VertexID) int) *EdgeIndex {
	n := g.NumVertices()
	e := prev
	if e == nil {
		e = &EdgeIndex{}
	}
	e.region = region
	if cap(e.base) >= n {
		e.base = e.base[:n]
	} else {
		e.base = make([]int64, n)
	}
	var next int64
	if flowBlocked && part != nil {
		for f := int32(0); int(f) < part.NumFlows(); f++ {
			for _, v := range part.Members(f) {
				e.base[v] = next
				next += int64(degree(graph.VertexID(v)))
			}
		}
	} else {
		for v := 0; v < n; v++ {
			e.base[v] = next
			next += int64(degree(graph.VertexID(v)))
		}
	}
	return e
}

// Addr returns the modeled address of the i-th adjacency entry of v.
func (e *EdgeIndex) Addr(v uint32, i int) uint64 {
	return e.region + uint64(e.base[v]+int64(i))*edgeSlotBytes
}
