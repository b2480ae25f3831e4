// Package oracle is the standing consistency harness: it takes any engine ×
// worker-count × fault configuration plus a declared guarantee set and checks
// the guarantees mechanically against from-scratch recomputation on seeded
// streams. Durability guarantees (exactly-once WAL replay) are checked by
// CheckReplay from plain recovery accounting, so internal/wal can use the
// oracle without an import cycle.
//
// The contract per guarantee:
//
//   - Convergence: after every batch the engine's values match a
//     from-scratch solve of the current graph (within the subject's
//     tolerance; 0 = bit-exact, the selective/local regime).
//   - RefinementFloor: an addition-only batch never makes any selective
//     value strictly worse — the monotone refinement floor restores rely on.
//   - WorkerBitExact: the value stream is bitwise identical across worker
//     counts, one worker (sequential, schedule-level order) included
//     (unique-fixpoint engines only).
//   - ExactlyOnceReplay: recovery replays exactly LastSeq-SnapshotSeq
//     batches — no drops, no double-applies.
package oracle

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Guarantee is a bit in a declared guarantee set.
type Guarantee uint32

const (
	Convergence Guarantee = 1 << iota
	RefinementFloor
	WorkerBitExact
	ExactlyOnceReplay
)

func (g Guarantee) String() string {
	var parts []string
	for _, e := range [...]struct {
		bit  Guarantee
		name string
	}{
		{Convergence, "convergence"},
		{RefinementFloor, "refinement-floor"},
		{WorkerBitExact, "worker-bit-exact"},
		{ExactlyOnceReplay, "exactly-once-replay"},
	} {
		if g&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// Violation is a mechanically detected breach of a declared guarantee. It
// implements error so oracle checks slot into existing error plumbing.
type Violation struct {
	Subject   string
	Guarantee Guarantee
	Batch     int // -1 when not batch-scoped
	Vertex    int // first divergent vertex; -1 when not vertex-scoped
	Dim       int // state dimension of the divergence (0 for scalars)
	Got, Want float64
	Detail    string
}

func (v *Violation) Error() string {
	msg := fmt.Sprintf("oracle: %s violates %s", v.Subject, v.Guarantee)
	if v.Batch >= 0 {
		msg += fmt.Sprintf(" at batch %d", v.Batch)
	}
	if v.Vertex >= 0 {
		msg += fmt.Sprintf(": vertex %d", v.Vertex)
		if v.Dim > 0 {
			msg += fmt.Sprintf(" dim %d", v.Dim)
		}
		msg += fmt.Sprintf(" = %v, want %v", v.Got, v.Want)
	}
	if v.Detail != "" {
		msg += " (" + v.Detail + ")"
	}
	return msg
}

// Instance is one live engine under test.
type Instance interface {
	ProcessBatch(b graph.Batch) error
	Values() []float64
}

// Subject adapts one engine family to the oracle. Implementations for the
// three engines live in subjects.go.
type Subject interface {
	// Name labels violations, e.g. "selective/SSSP".
	Name() string
	// Declared is the guarantee set this engine family claims.
	Declared() Guarantee
	// Tolerance is the per-value comparison slack against the from-scratch
	// reference (0 = bit-exact).
	Tolerance() float64
	// Symmetric reports whether batches and initial edges must be mirrored.
	Symmetric() bool
	// Dim is the per-vertex state dimension (Values has NumV*Dim entries).
	Dim() int
	// Better reports whether a is strictly better than b (refinement-floor
	// direction); only consulted when RefinementFloor is checked.
	Better(a, b float64) bool
	// New builds an engine over g (which it may mutate) under cfg.
	New(g *graph.Streaming, cfg engine.Config) (Instance, error)
	// Reference computes the from-scratch answer for the current graph.
	Reference(g *graph.Streaming) []float64
}

// Report is the outcome of one Check run.
type Report struct {
	Subject   string
	Checked   Guarantee
	Batches   int // batches fully validated before stopping
	Violation *Violation
}

// Err returns the first violation as an error, or nil for a clean run.
func (r *Report) Err() error {
	if r.Violation == nil {
		return nil
	}
	return r.Violation
}

// bitExactVariants are the worker counts a WorkerBitExact subject must
// agree with bitwise: the sequential reference, a shard count that is not a
// power of two, and a power of two.
var bitExactVariants = []int{1, 3, 4}

// Check drives the subject through the workload under cfg and verifies
// every guarantee in want after every batch, stopping at the first
// violation. The workload's initial edges are mirrored for symmetric
// subjects; batches are handed to engines raw (engines symmetrize
// internally) and to the reference graph pre-symmetrized.
func Check(s Subject, want Guarantee, cfg engine.Config, w gen.Workload) *Report {
	r := &Report{Subject: s.Name(), Checked: want}
	initial := w.Initial
	if s.Symmetric() {
		initial = mirror(initial)
	}
	mk := func(c engine.Config) (Instance, error) {
		return s.New(graph.FromEdges(w.NumV, initial), c)
	}
	primary, err := mk(cfg)
	if err != nil {
		r.Violation = &Violation{Subject: s.Name(), Guarantee: want, Batch: -1, Vertex: -1,
			Detail: "engine construction failed: " + err.Error()}
		return r
	}
	var variants []Instance
	if want&WorkerBitExact != 0 {
		for _, workers := range bitExactVariants {
			vc := cfg
			vc.Workers = workers
			inst, err := mk(vc)
			if err != nil {
				r.Violation = &Violation{Subject: s.Name(), Guarantee: WorkerBitExact, Batch: -1,
					Vertex: -1, Detail: "variant construction failed: " + err.Error()}
				return r
			}
			variants = append(variants, inst)
		}
	}
	ref := graph.FromEdges(w.NumV, initial)
	dim := s.Dim()
	tol := s.Tolerance()

	for bi, b := range w.Batches {
		var floor []float64
		checkFloor := want&RefinementFloor != 0 && additionOnly(b)
		if checkFloor {
			floor = primary.Values()
		}
		if err := primary.ProcessBatch(b); err != nil {
			r.Violation = &Violation{Subject: s.Name(), Guarantee: Convergence, Batch: bi,
				Vertex: -1, Detail: "ProcessBatch failed: " + err.Error()}
			return r
		}
		got := primary.Values()

		if want&Convergence != 0 {
			rb := b
			if s.Symmetric() {
				rb = engine.Symmetrize(b)
			}
			ref.ApplyBatch(rb)
			wantVals := s.Reference(ref)
			if i, diverged := FirstDivergence(got, wantVals, tol); diverged {
				r.Violation = &Violation{Subject: s.Name(), Guarantee: Convergence, Batch: bi,
					Vertex: i / dim, Dim: i % dim, Got: got[i], Want: wantVals[i]}
				return r
			}
		}
		if checkFloor {
			for i := range got {
				if s.Better(floor[i], got[i]) {
					r.Violation = &Violation{Subject: s.Name(), Guarantee: RefinementFloor,
						Batch: bi, Vertex: i / dim, Dim: i % dim, Got: got[i], Want: floor[i],
						Detail: "addition-only batch worsened a value below its floor"}
					return r
				}
			}
		}
		for vi, inst := range variants {
			if err := inst.ProcessBatch(b); err != nil {
				r.Violation = &Violation{Subject: s.Name(), Guarantee: WorkerBitExact, Batch: bi,
					Vertex: -1, Detail: fmt.Sprintf("variant %d ProcessBatch failed: %v", vi, err)}
				return r
			}
			vv := inst.Values()
			if i, diverged := FirstDivergence(got, vv, 0); diverged {
				r.Violation = &Violation{Subject: s.Name(), Guarantee: WorkerBitExact, Batch: bi,
					Vertex: i / dim, Dim: i % dim, Got: vv[i], Want: got[i],
					Detail: fmt.Sprintf("workers=%d disagrees with primary", bitExactVariants[vi])}
				return r
			}
		}
		r.Batches++
	}
	return r
}

// CheckReplay validates the exactly-once replay accounting of one recovery:
// the number of replayed batches must equal the log tail past the restored
// snapshot (zero when the log ends at or before the snapshot — the
// truncated-tail case recovery resolves by resetting the log head). It
// takes plain integers so the wal package can call it without a cycle.
func CheckReplay(subject string, snapshotSeq, lastSeq uint64, replayed int) *Violation {
	want := 0
	if lastSeq > snapshotSeq {
		want = int(lastSeq - snapshotSeq)
	}
	if replayed == want {
		return nil
	}
	return &Violation{Subject: subject, Guarantee: ExactlyOnceReplay, Batch: -1, Vertex: -1,
		Got: float64(replayed), Want: float64(want),
		Detail: fmt.Sprintf("replayed %d batches, want %d (snapshot seq %d, log seq %d)",
			replayed, want, snapshotSeq, lastSeq)}
}

// FirstDivergence returns the first index where got and want differ by more
// than tol (±Inf of equal sign compare equal; NaN never compares equal),
// and whether such an index exists. Fuzzers use it to report the oracle's
// first divergent vertex alongside the seed.
func FirstDivergence(got, want []float64, tol float64) (int, bool) {
	if len(got) != len(want) {
		return 0, true
	}
	for i := range got {
		g, w := got[i], want[i]
		if g == w || (math.IsInf(g, 1) && math.IsInf(w, 1)) || (math.IsInf(g, -1) && math.IsInf(w, -1)) {
			continue
		}
		if math.Abs(g-w) <= tol {
			continue
		}
		return i, true
	}
	return -1, false
}

func mirror(edges []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
	}
	return out
}

func additionOnly(b graph.Batch) bool {
	for _, u := range b {
		if u.Del {
			return false
		}
	}
	return true
}
