package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Seeded end-to-end stream fuzzer: hostile RMAT update streams — far
// outside the paper's gentle 10%-deletion default — driven through every
// algorithm at several worker counts under BOTH schedulers, checked
// against from-scratch recomputation after every batch. Each failure
// message carries the reproducing seed, shape, scheduler, and worker
// count, so any divergence replays deterministically. After every batch
// the selective engines' key forest is also checked against a bulk load of
// the parents the batch started from (keyForestLoaded).

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
		// Add/delete-interleaved: a balanced mix, with each batch's
		// updates deterministically shuffled so additions and deletions
		// alternate arbitrarily. Safe to reorder: BuildWorkload never
		// adds and deletes the same vertex pair within one batch, and the
		// same shuffled batch feeds both the engine and the oracle.
		// Hub-skewed: Barabási–Albert growth concentrates in-degree on a
		// few hubs, the topology that stresses the hub adjacency index and
		// (when enabled) hub replication. Replication-on coverage of the
		// same workloads lives in replicate_test.go and the oracle fuzzer.
		{"hub-skew", func(seed uint64) gen.Workload {
			return fuzzBA(seed, gen.StreamConfig{
				InitialFraction: 0.6,
				DeleteRatio:     0.4,
				NumBatches:      3,
			})
		}},
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
// engine: PageRank must track the from-scratch solution within tolerance
// after every batch.
func accumulativeEquivalent(w gen.Workload, cfg Config) bool {
	alg := algo.NewPageRank(w.NumV)
	g := graph.FromEdges(w.NumV, w.Initial)
	e := NewAccumulative(g, alg, cfg)
	ref := g.Clone()
	for _, b := range w.Batches {
		e.ProcessBatch(b)
		ref.ApplyBatch(b)
		want := algo.SolveAccumulative(ref, alg)
		got := e.Values()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-5 {
				return false
			}
		}
	}
	return true
}

func TestFuzzStreamEquivalence(t *testing.T) {
	seeds := []uint64{0x5eed0001, 0xDEC0DE42, 0xA11CE}
	workerCounts := []int{1, 4, 8}
	scheds := []SchedulerKind{SchedWorkStealing, SchedGlobal}

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
				for _, sched := range scheds {
					for _, workers := range workerCounts {
						cfg := Config{Workers: workers, FlowCap: 32, Scheduler: sched}
						for _, sa := range selective {
							if err := selectiveEquivalent(sa.alg, w, cfg); err != nil {
								t.Errorf("%s diverged from oracle: shape=%s seed=%#x sched=%s workers=%d: %v",
									sa.name, shape.name, seed, sched, workers, err)
							}
						}
						if !accumulativeEquivalent(w, cfg) {
							t.Errorf("pagerank diverged from oracle: shape=%s seed=%#x sched=%s workers=%d",
								shape.name, seed, sched, workers)
						}
					}
				}
			})
		}
	}
}
