package engine

import (
	"fmt"

	"repro/internal/algo"
	"repro/internal/graph"
)

// AccState is the accumulative engine's converged residual state: the rank
// (state) vector plus the aggregate and last-broadcast residuals that make
// the delta-push invariant agg(v) = Σ w·lastUnit(u) restorable without a
// from-scratch converge. All three are row-major NumV*Dim, matching
// Values(). Capture it only at a batch boundary (Dirty engines have
// in-flight deltas the residuals do not cover).
type AccState struct {
	Dim                  int
	State, Agg, LastUnit []float64
}

// SnapshotState copies the engine's residual state for durability.
func (e *Accumulative) SnapshotState() *AccState {
	n := e.G.NumVertices()
	st := &AccState{
		Dim:      e.dim,
		State:    make([]float64, n*e.dim),
		Agg:      make([]float64, n*e.dim),
		LastUnit: make([]float64, n*e.dim),
	}
	for v := 0; v < n; v++ {
		e.state.GetVec(uint32(v), st.State[v*e.dim:(v+1)*e.dim])
		e.agg.GetVec(uint32(v), st.Agg[v*e.dim:(v+1)*e.dim])
		e.lastUnit.GetVec(uint32(v), st.LastUnit[v*e.dim:(v+1)*e.dim])
	}
	return st
}

// NewAccumulativeFromState rebuilds an engine over g from a residual
// snapshot taken at a batch boundary over an identical graph, skipping the
// initial convergence: out-weights are rederived from g, the residual
// vectors are installed as-is, and every dirtiness flag starts clear — the
// converged-boundary condition SnapshotState captured.
func NewAccumulativeFromState(g *graph.Streaming, alg algo.Accumulative, cfg Config, st *AccState) (*Accumulative, error) {
	n := g.NumVertices()
	if st.Dim != alg.Dim() {
		return nil, fmt.Errorf("engine: state dim %d, algorithm wants %d", st.Dim, alg.Dim())
	}
	want := n * st.Dim
	if len(st.State) != want || len(st.Agg) != want || len(st.LastUnit) != want {
		return nil, fmt.Errorf("engine: state vectors %d/%d/%d values, want %d",
			len(st.State), len(st.Agg), len(st.LastUnit), want)
	}
	e := newAccumulative(g, alg, cfg)
	for v := 0; v < n; v++ {
		e.state.SetVec(uint32(v), st.State[v*e.dim:(v+1)*e.dim])
		e.agg.SetVec(uint32(v), st.Agg[v*e.dim:(v+1)*e.dim])
		e.lastUnit.SetVec(uint32(v), st.LastUnit[v*e.dim:(v+1)*e.dim])
	}
	return e, nil
}
