package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/algo"
	"repro/internal/etree"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Cross-engine equivalence properties: for arbitrary small graphs and
// update streams, the GraphFly engine must agree exactly with from-scratch
// recomputation under every configuration knob, for every selective
// algorithm, and the accumulative engine must agree within tolerance.
// These are the repository's strongest correctness guarantees: they cover
// topologies and streams no hand-written case anticipates.

func randomWorkload(seed uint64) gen.Workload {
	r := rng.New(seed)
	numV := 32 + r.Intn(96)
	numE := numV * (2 + r.Intn(6))
	kind := gen.Kind(r.Intn(3))
	cfg := gen.Config{Kind: kind, NumV: numV, NumE: numE, Seed: seed,
		A: 0.57, B: 0.19, C: 0.19, MaxWeight: 1 + r.Intn(8)}
	edges := gen.Generate(cfg)
	return gen.BuildWorkload(numV, edges, gen.StreamConfig{
		InitialFraction: 0.3 + 0.5*r.Float64(),
		DeleteRatio:     r.Float64() * 0.9,
		BatchSize:       20 + r.Intn(100),
		NumBatches:      1 + r.Intn(4),
		Seed:            seed ^ 0xabcdef,
	})
}

func randomConfig(seed uint64) Config {
	r := rng.New(seed ^ 0x5ca1ab1e)
	return Config{
		Workers:          1 + r.Intn(4),
		FlowCap:          8 << r.Intn(6),
		TwoPhase:         r.Float64() < 0.25,
		ScatteredStorage: r.Float64() < 0.25,
		RepartitionEvery: r.Intn(5), // 0: no clock, the production default
	}
}

// selectiveEquivalent runs w through a selective engine and reports the
// first batch after which its values differ from a from-scratch solve,
// after which the key forest is not what a bulk load of the parents the
// batch started from gives, or after which the partition is not a capped
// bijection (partitionValid).
func selectiveEquivalent(alg algo.Selective, w gen.Workload, cfg Config) error {
	initial := w.Initial
	if alg.Symmetric() {
		var both []graph.Edge
		for _, e := range initial {
			both = append(both, e, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
		}
		initial = both
	}
	g := graph.FromEdges(w.NumV, initial)
	e := NewSelective(g, alg, cfg)
	ref := g.Clone()
	for i, b := range w.Batches {
		parentStart := slices.Clone(e.parent)
		e.ProcessBatch(b)
		rb := b
		if alg.Symmetric() {
			rb = Symmetrize(b)
		}
		ref.ApplyBatch(rb)
		want, _ := algo.SolveSelective(ref, alg)
		got := e.Values()
		for v := range want {
			if want[v] != got[v] && !(math.IsInf(want[v], 1) && math.IsInf(got[v], 1)) &&
				!(math.IsInf(want[v], -1) && math.IsInf(got[v], -1)) {
				return fmt.Errorf("batch %d: vertex %d = %v, oracle %v", i, v, got[v], want[v])
			}
		}
		if err := keyForestLoaded(e.kf, parentStart); err != nil {
			return fmt.Errorf("batch %d: %v", i, err)
		}
		if err := partitionValid(&e.driver); err != nil {
			return fmt.Errorf("batch %d: %v", i, err)
		}
	}
	return nil
}

// partitionValid checks, reading the engine only, that its partition is a
// capped bijection: every vertex in exactly one flow, no flow over the cap.
func partitionValid(d *driver) error { return d.part.Validate() }

// keyForestLoaded checks that f, as the engine left it, is a valid forest
// over the given parents whose every child set equals the one a fresh
// BulkLoad of them builds. Within a batch only maintain writes the forest,
// so after a batch it must hold the parents the batch started from.
func keyForestLoaded(f *etree.KeyForest, parent []int32) error {
	if err := f.Validate(); err != nil {
		return err
	}
	ref := etree.NewKeyForest(len(parent))
	ref.BulkLoad(parent)
	for v := range parent {
		if p := f.Parent(uint32(v)); p != parent[v] {
			return fmt.Errorf("key forest parent of %d: %d, batch start %d", v, p, parent[v])
		}
		got, want := childSet(f, uint32(v)), childSet(ref, uint32(v))
		if !slices.Equal(got, want) {
			return fmt.Errorf("key forest children of %d: %v, bulk load %v", v, got, want)
		}
	}
	return nil
}

// childSet returns v's key-forest children in ascending order.
func childSet(f *etree.KeyForest, v uint32) []uint32 {
	var cs []uint32
	f.Subtree(v, func(x uint32) bool {
		if x != v {
			cs = append(cs, x)
		}
		return x == v
	})
	slices.Sort(cs)
	return cs
}

func TestPropertySSSPEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		w := randomWorkload(seed)
		src := graph.VertexID(seed % uint64(w.NumV))
		return selectiveEquivalent(algo.SSSP{Src: src}, w, randomConfig(seed)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySSWPEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		w := randomWorkload(seed + 1)
		src := graph.VertexID(seed % uint64(w.NumV))
		return selectiveEquivalent(algo.SSWP{Src: src}, w, randomConfig(seed+1)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBFSEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		w := randomWorkload(seed + 2)
		src := graph.VertexID(seed % uint64(w.NumV))
		return selectiveEquivalent(algo.BFS{Src: src}, w, randomConfig(seed+2)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCCEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		w := randomWorkload(seed + 3)
		return selectiveEquivalent(algo.CC{}, w, randomConfig(seed+3)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPageRankEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		return accumulativeEquivalent(randomWorkload(seed+4), randomConfig(seed+4)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// The key-edge forest recorded by the engine must always support the
// current values: parent(v) is a real in-edge whose propagation yields
// exactly val(v) — KickStarter's dependence invariant, which trimming
// correctness rests on.
func TestPropertyKeyEdgesSupportValues(t *testing.T) {
	f := func(seed uint64) bool {
		w := randomWorkload(seed + 5)
		alg := algo.SSSP{Src: 0}
		g := graph.FromEdges(w.NumV, w.Initial)
		e := NewSelective(g, alg, randomConfig(seed+5))
		for _, b := range w.Batches {
			e.ProcessBatch(b)
		}
		for v := 0; v < w.NumV; v++ {
			p := e.Parent(graph.VertexID(v))
			val := e.Value(graph.VertexID(v))
			if p == -1 {
				// Unsupported vertices must sit at their base value.
				if val != alg.Base(graph.VertexID(v)) && !math.IsInf(val, 1) {
					return false
				}
				continue
			}
			wgt, ok := g.HasEdge(graph.VertexID(p), graph.VertexID(v))
			if !ok {
				return false // parent edge vanished from the graph
			}
			if alg.Propagate(e.Value(graph.VertexID(p)), wgt) != val {
				return false // parent no longer supports the value
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
