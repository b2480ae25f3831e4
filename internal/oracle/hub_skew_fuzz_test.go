package oracle

import (
	"fmt"
	"testing"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/rng"
)

// Hub-skewed fuzz: Barabási–Albert streams concentrate in-degree on a few
// hubs, so one flow receives most cross-flow traffic and the graph's
// in-adjacency hub index engages under a low threshold. Every subject must
// pass its engine family's FULL declared guarantee set — for the selective
// family that includes WorkerBitExact, bit-exact agreement across 1, 3 and
// 4 workers. Failure messages carry the seed.

// hubSkewWorkload builds a BA stream whose size derives from the seed,
// with enough density that several vertices clear the low hub threshold
// the fuzz configs use.
func hubSkewWorkload(seed uint64) gen.Workload {
	r := rng.New(seed)
	numV := 48 + r.Intn(48)
	numE := numV * (4 + r.Intn(4))
	edges := gen.Generate(gen.Config{Kind: gen.BA, NumV: numV, NumE: numE,
		Seed: seed, MaxWeight: 1 + r.Intn(8)})
	return gen.BuildWorkload(numV, edges, gen.StreamConfig{
		InitialFraction: 0.6,
		DeleteRatio:     0.3,
		BatchSize:       24 + r.Intn(48),
		NumBatches:      3,
		Seed:            seed ^ 0xba5eba11,
	})
}

func TestFuzzHubSkew(t *testing.T) {
	seeds := []uint64{0xba5e0001, 0xba5e0002, 0xba5e0003}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			t.Parallel()
			w := hubSkewWorkload(seed)
			subjects := []Subject{
				SelectiveSubject{Alg: algo.SSSP{Src: 0}},
				SelectiveSubject{Alg: algo.CC{}},
				AccumulativeSubject{Alg: algo.NewPageRank(w.NumV)},
			}
			cfg := engine.Config{Workers: 4, FlowCap: 32, HubThreshold: 8}
			for _, s := range subjects {
				r := Check(s, s.Declared(), cfg, w)
				if err := r.Err(); err != nil {
					t.Errorf("%s: seed=%#x: %v", s.Name(), seed, err)
				} else if r.Batches != len(w.Batches) {
					t.Errorf("%s: seed=%#x: validated %d batches, want %d",
						s.Name(), seed, r.Batches, len(w.Batches))
				}
			}
		})
	}
}
