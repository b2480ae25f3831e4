package oracle

import (
	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/graph"
)

// AccTolerance is the convergence slack for accumulative subjects: both the
// incremental engine and the reference iterate to Epsilon, so their answers
// agree only up to the propagated threshold (matches the engine test suite).
const AccTolerance = 1e-5

type inst struct {
	process func(graph.Batch) error
	values  func() []float64
}

func (i inst) ProcessBatch(b graph.Batch) error { return i.process(b) }
func (i inst) Values() []float64                { return i.values() }

// SelectiveSubject adapts the selective engine (SSSP/SSWP/BFS/CC). Unique
// key-edge fixpoints make it bit-exact and refinement-monotone.
type SelectiveSubject struct{ Alg algo.Selective }

func (s SelectiveSubject) Name() string { return "selective/" + s.Alg.Name() }
func (s SelectiveSubject) Declared() Guarantee {
	return Convergence | RefinementFloor | WorkerBitExact | ExactlyOnceReplay
}
func (s SelectiveSubject) Tolerance() float64       { return 0 }
func (s SelectiveSubject) Symmetric() bool          { return s.Alg.Symmetric() }
func (s SelectiveSubject) Dim() int                 { return 1 }
func (s SelectiveSubject) Better(a, b float64) bool { return s.Alg.Better(a, b) }

func (s SelectiveSubject) New(g *graph.Streaming, cfg engine.Config) (Instance, error) {
	e := engine.NewSelective(g, s.Alg, cfg)
	return inst{
		process: func(b graph.Batch) error { _, err := e.ProcessBatchE(b); return err },
		values:  e.Values,
	}, nil
}

func (s SelectiveSubject) Reference(g *graph.Streaming) []float64 {
	vals, _ := algo.SolveSelective(g, s.Alg)
	return vals
}

// AccumulativeSubject adapts the accumulative engine (PageRank/LP).
// Floating-point delta propagation is order-sensitive, so it declares only
// tolerance-bounded convergence (plus replay accounting) — no bit-exactness
// and no refinement floor.
type AccumulativeSubject struct{ Alg algo.Accumulative }

func (s AccumulativeSubject) Name() string           { return "accumulative/" + s.Alg.Name() }
func (s AccumulativeSubject) Declared() Guarantee    { return Convergence | ExactlyOnceReplay }
func (s AccumulativeSubject) Tolerance() float64     { return AccTolerance }
func (s AccumulativeSubject) Symmetric() bool        { return s.Alg.Symmetric() }
func (s AccumulativeSubject) Dim() int               { return s.Alg.Dim() }
func (AccumulativeSubject) Better(a, b float64) bool { return a > b }

func (s AccumulativeSubject) New(g *graph.Streaming, cfg engine.Config) (Instance, error) {
	e := engine.NewAccumulative(g, s.Alg, cfg)
	return inst{
		process: func(b graph.Batch) error { _, err := e.ProcessBatchE(b); return err },
		values:  e.Values,
	}, nil
}

func (s AccumulativeSubject) Reference(g *graph.Streaming) []float64 {
	return algo.SolveAccumulative(g, s.Alg)
}

// LocalSubject adapts the local engine (triangle counting, k-core). Both
// workloads have unique seeded fixpoints over small integers, so the values
// are bit-exact across worker counts, but additions and
// deletions move values in both directions — no refinement floor.
type LocalSubject struct{ Alg algo.Local }

func (s LocalSubject) Name() string { return "local/" + s.Alg.Name() }
func (s LocalSubject) Declared() Guarantee {
	return Convergence | WorkerBitExact | ExactlyOnceReplay
}
func (s LocalSubject) Tolerance() float64       { return 0 }
func (s LocalSubject) Symmetric() bool          { return s.Alg.Symmetric() }
func (s LocalSubject) Dim() int                 { return 1 }
func (s LocalSubject) Better(a, b float64) bool { return s.Alg.Better(a, b) }

func (s LocalSubject) New(g *graph.Streaming, cfg engine.Config) (Instance, error) {
	e := engine.NewLocal(g, s.Alg, cfg)
	return inst{
		process: func(b graph.Batch) error { _, err := e.ProcessBatchE(b); return err },
		values:  e.Values,
	}, nil
}

func (s LocalSubject) Reference(g *graph.Streaming) []float64 {
	return s.Alg.Solve(g)
}
