package engine_test

import (
	"fmt"
	"testing"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// The local-engine slice of the stream fuzzer (external test package so it
// can drive the consistency oracle, which imports engine): triangle
// counting and k-core maintenance across the same hostile shapes as
// TestFuzzStreamEquivalence — including the deletion-only adversarial phase
// — at several worker counts. A failure prints the reproducing seed and
// the oracle's first divergent vertex. After every batch the engine's
// partition is also validated (partCheckedLocal).

// partCheckedLocal is the oracle's local subject with one more check after
// every ProcessBatch: engine.PartitionValid, which only reads the engine. An
// invalid partition fails the batch, and the oracle reports it.
type partCheckedLocal struct{ oracle.LocalSubject }

func (s partCheckedLocal) New(g *graph.Streaming, cfg engine.Config) (oracle.Instance, error) {
	return partCheckedInst{engine.NewLocal(g, s.Alg, cfg)}, nil
}

type partCheckedInst struct{ *engine.Local }

func (i partCheckedInst) ProcessBatch(b graph.Batch) error {
	if _, err := i.ProcessBatchE(b); err != nil {
		return err
	}
	return engine.PartitionValid(i.Local)
}

func localFuzzWorkload(seed uint64, sc gen.StreamConfig) gen.Workload {
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

func localFuzzShapes() map[string]gen.StreamConfig {
	return map[string]gen.StreamConfig{
		"delete-heavy": {InitialFraction: 0.75, DeleteRatio: 0.8, NumBatches: 3},
		"delete-only":  {InitialFraction: 0.9, DeleteRatio: 1.0, NumBatches: 3},
		"interleaved":  {InitialFraction: 0.5, DeleteRatio: 0.5, NumBatches: 3},
	}
}

func TestFuzzStreamLocalEquivalence(t *testing.T) {
	seeds := []uint64{0x5eed0001, 0xDEC0DE42, 0xA11CE}
	workerCounts := []int{1, 4, 8}
	algs := []algo.Local{algo.TriangleCount{}, algo.KCore{}}

	for shapeName, sc := range localFuzzShapes() {
		for _, seed := range seeds {
			shapeName, sc, seed := shapeName, sc, seed
			t.Run(fmt.Sprintf("%s/seed=%#x", shapeName, seed), func(t *testing.T) {
				t.Parallel()
				w := localFuzzWorkload(seed, sc)
				for _, alg := range algs {
					for _, workers := range workerCounts {
						cfg := engine.Config{Workers: workers, FlowCap: 32}
						s := partCheckedLocal{oracle.LocalSubject{Alg: alg}}
						r := oracle.Check(s, oracle.Convergence, cfg, w)
						if v := r.Violation; v != nil {
							t.Errorf("%s diverged from oracle: shape=%s seed=%#x workers=%d: %v",
								alg.Name(), shapeName, seed, workers, v)
						}
					}
				}
			})
		}
	}
}
