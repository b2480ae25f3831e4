package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Seeded end-to-end stream fuzzer: hostile RMAT update streams — far
// outside the paper's gentle 10%-deletion default — driven through every
// algorithm at several worker counts, checked against from-scratch
// recomputation after every batch. Each failure message carries the
// reproducing seed, shape and worker count, so any divergence replays
// deterministically. After every batch the selective engines' key forest
// is also checked against a bulk load of the parents the batch started
// from (keyForestLoaded), and every engine's partition is validated
// (partitionValid).

type fuzzShape struct {
	name  string
	build func(seed uint64) gen.Workload
}

// fuzzRMAT builds a small RMAT workload whose size parameters derive from
// the seed, with the stream shaped by sc.
func fuzzRMAT(seed uint64, sc gen.StreamConfig) gen.Workload {
	r := rng.New(seed)
	numV := 40 + r.Intn(56)
	numE := numV * (3 + r.Intn(5))
	cfg := gen.Config{Kind: gen.RMAT, NumV: numV, NumE: numE, Seed: seed,
		A: 0.57, B: 0.19, C: 0.19, MaxWeight: 1 + r.Intn(8)}
	edges := gen.Generate(cfg)
	sc.BatchSize = 24 + r.Intn(48)
	sc.Seed = seed ^ 0xf00dface
	return gen.BuildWorkload(numV, edges, sc)
}

// fuzzBA is fuzzRMAT's hub-skewed counterpart: Barabási–Albert growth
// concentrates in-degree on a few vertices, so under a low hub threshold
// several of them carry an in-adjacency hub index at test scale.
func fuzzBA(seed uint64, sc gen.StreamConfig) gen.Workload {
	r := rng.New(seed)
	numV := 48 + r.Intn(48)
	numE := numV * (4 + r.Intn(4))
	cfg := gen.Config{Kind: gen.BA, NumV: numV, NumE: numE, Seed: seed,
		MaxWeight: 1 + r.Intn(8)}
	edges := gen.Generate(cfg)
	sc.BatchSize = 24 + r.Intn(48)
	sc.Seed = seed ^ 0xba5eba11
	return gen.BuildWorkload(numV, edges, sc)
}

func fuzzShapes() []fuzzShape {
	return []fuzzShape{
		// Deletion-heavy: 80% of each batch tears edges out of a warm
		// graph, stressing trimming and key-edge invalidation far beyond
		// the paper's 10% default.
		{"delete-heavy", func(seed uint64) gen.Workload {
			return fuzzRMAT(seed, gen.StreamConfig{
				InitialFraction: 0.75,
				DeleteRatio:     0.8,
				NumBatches:      3,
			})
		}},
		// Deletion-only: the adversarial phase — every batch is pure
		// teardown of a warm graph, so values only move in the "wrong"
		// direction (selective floors rise, triangle counts and coreness
		// fall) and nothing masks a missed invalidation.
		{"delete-only", func(seed uint64) gen.Workload {
			return fuzzRMAT(seed, gen.StreamConfig{
				InitialFraction: 0.9,
				DeleteRatio:     1.0,
				NumBatches:      3,
			})
		}},
		// Hub-skewed: Barabási–Albert growth concentrates in-degree on a
		// few hubs, the topology that stresses the hub adjacency index.
		{"hub-skew", func(seed uint64) gen.Workload {
			return fuzzBA(seed, gen.StreamConfig{
				InitialFraction: 0.6,
				DeleteRatio:     0.4,
				NumBatches:      3,
			})
		}},
		// Add/delete-interleaved: a balanced mix, with each batch's
		// updates deterministically shuffled so additions and deletions
		// alternate arbitrarily. Safe to reorder: BuildWorkload never
		// adds and deletes the same vertex pair within one batch, and the
		// same shuffled batch feeds both the engine and the oracle.
		{"interleaved", func(seed uint64) gen.Workload {
			w := fuzzRMAT(seed, gen.StreamConfig{
				InitialFraction: 0.5,
				DeleteRatio:     0.5,
				NumBatches:      3,
			})
			r := rng.New(seed ^ 0x1ab0e1)
			for _, b := range w.Batches {
				b := b
				r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			}
			return w
		}},
	}
}

// accumulativeEquivalent mirrors selectiveEquivalent for the accumulative
// engine: PageRank must track the from-scratch solution within tolerance,
// and its partition must be valid, after every batch.
func accumulativeEquivalent(w gen.Workload, cfg Config) error {
	alg := algo.NewPageRank(w.NumV)
	g := graph.FromEdges(w.NumV, w.Initial)
	e := NewAccumulative(g, alg, cfg)
	ref := g.Clone()
	for bi, b := range w.Batches {
		e.ProcessBatch(b)
		ref.ApplyBatch(b)
		want := algo.SolveAccumulative(ref, alg)
		got := e.Values()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-5 {
				return fmt.Errorf("batch %d: state %d = %v, oracle %v", bi, i, got[i], want[i])
			}
		}
		if err := partitionValid(&e.driver); err != nil {
			return fmt.Errorf("batch %d: %v", bi, err)
		}
	}
	return nil
}

func TestFuzzStreamEquivalence(t *testing.T) {
	seeds := []uint64{0x5eed0001, 0xDEC0DE42, 0xA11CE}
	workerCounts := []int{1, 4, 8}

	for _, shape := range fuzzShapes() {
		for _, seed := range seeds {
			shape, seed := shape, seed
			t.Run(fmt.Sprintf("%s/seed=%#x", shape.name, seed), func(t *testing.T) {
				t.Parallel()
				w := shape.build(seed)
				src := graph.VertexID(seed % uint64(w.NumV))
				selective := []struct {
					name string
					alg  algo.Selective
				}{
					{"sssp", algo.SSSP{Src: src}},
					{"sswp", algo.SSWP{Src: src}},
					{"bfs", algo.BFS{Src: src}},
					{"cc", algo.CC{}},
				}
				for _, workers := range workerCounts {
					cfg := Config{Workers: workers, FlowCap: 32}
					for _, sa := range selective {
						if err := selectiveEquivalent(sa.alg, w, cfg); err != nil {
							t.Errorf("%s diverged from oracle: shape=%s seed=%#x workers=%d: %v",
								sa.name, shape.name, seed, workers, err)
						}
					}
					if err := accumulativeEquivalent(w, cfg); err != nil {
						t.Errorf("pagerank diverged from oracle: shape=%s seed=%#x workers=%d: %v",
							shape.name, seed, workers, err)
					}
				}
			})
		}
	}
}

// TestLongStreamFlowsStayExact: with no clock one partition carries a
// selective engine through the whole stream. 240 batches, half of every
// batch deletions, on a graph large enough for several default-cap flows,
// at two workers under the default Config: SSSP's values are held to the
// oracle and its partition validated after every batch. The structural
// kernels (PageRank, k-core), whose engines cost far more per batch, run
// the first 64 batches: they rebuild their D-trees a few times there, and
// the partition is validated after every batch, their values every 16th.
func TestLongStreamFlowsStayExact(t *testing.T) {
	gc := gen.Config{Kind: gen.RMAT, NumV: 4000, NumE: 16000, Seed: 0x10c0,
		A: 0.57, B: 0.19, C: 0.19, MaxWeight: 8}
	w := gen.BuildWorkload(gc.NumV, gen.Generate(gc), gen.StreamConfig{
		InitialFraction: 0.6, DeleteRatio: 0.5, BatchSize: 60, NumBatches: 240, Seed: 0x10c1,
	})
	cfg := Config{Workers: 2}
	if err := selectiveEquivalent(algo.SSSP{Src: 0}, w, cfg); err != nil {
		t.Fatalf("sssp: %v", err)
	}

	pr := algo.NewPageRank(w.NumV)
	acc := NewAccumulative(graph.FromEdges(w.NumV, w.Initial), pr, cfg)
	kc := NewLocal(graph.FromEdges(w.NumV, mirrored(w.Initial)), algo.KCore{}, cfg)
	accRef, kcRef := graph.FromEdges(w.NumV, w.Initial), graph.FromEdges(w.NumV, mirrored(w.Initial))
	for i, b := range w.Batches[:64] {
		acc.ProcessBatch(b)
		kc.ProcessBatch(b)
		accRef.ApplyBatch(b)
		kcRef.ApplyBatch(Symmetrize(b))
		if err := partitionValid(&acc.driver); err != nil {
			t.Fatalf("pagerank: batch %d: %v", i, err)
		}
		if err := partitionValid(&kc.driver); err != nil {
			t.Fatalf("kcore: batch %d: %v", i, err)
		}
		if i%16 != 15 {
			continue
		}
		if !slices.Equal(kc.Values(), algo.KCore{}.Solve(kcRef)) {
			t.Fatalf("kcore: batch %d: values differ from a from-scratch solve", i)
		}
		got, want := acc.Values(), algo.SolveAccumulative(accRef, pr)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-5 {
				t.Fatalf("pagerank: batch %d: state %d = %v, oracle %v", i, v, got[v], want[v])
			}
		}
	}
}
