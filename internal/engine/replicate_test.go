package engine

import (
	"fmt"
	"testing"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Hub replication equivalence: the replicated configurations must agree
// with the unreplicated engine's answer (itself checked against
// from-scratch recomputation) on hub-skewed streams, where replication
// actually engages. fuzzBA builds the skew: Barabási–Albert growth plus a
// low hub threshold guarantees several replicated vertices at test scale.

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

func replicatedConfig(workers int) Config {
	return Config{
		Workers:        workers,
		FlowCap:        32,
		HubReplication: true,
		HubThreshold:   8,
	}
}

func TestReplicationSelectiveEquivalence(t *testing.T) {
	algs := []algo.Selective{
		algo.SSSP{Src: 0}, algo.SSWP{Src: 0}, algo.BFS{Src: 0}, algo.CC{},
	}
	for _, workers := range []int{1, 4} {
		for _, seed := range []uint64{0xba0001, 0xba0002, 0xba0003} {
			workers, seed := workers, seed
			t.Run(fmt.Sprintf("%s/w%d/seed%x", schedName, workers, seed), func(t *testing.T) {
				t.Parallel()
				w := fuzzBA(seed, gen.StreamConfig{
					InitialFraction: 0.6,
					DeleteRatio:     0.3,
					NumBatches:      3,
				})
				cfg := replicatedConfig(workers)
				for _, alg := range algs {
					if err := selectiveEquivalent(alg, w, cfg); err != nil {
						t.Errorf("replicated %s diverged (seed=%#x workers=%d): %v",
							alg.Name(), seed, workers, err)
					}
				}
			})
		}
	}
}

func TestReplicationAccumulativeEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, seed := range []uint64{0xba1001, 0xba1002, 0xba1003} {
			workers, seed := workers, seed
			t.Run(fmt.Sprintf("%s/w%d/seed%x", schedName, workers, seed), func(t *testing.T) {
				t.Parallel()
				w := fuzzBA(seed, gen.StreamConfig{
					InitialFraction: 0.6,
					DeleteRatio:     0.3,
					NumBatches:      3,
				})
				cfg := replicatedConfig(workers)
				if err := accumulativeEquivalent(w, cfg); err != nil {
					t.Errorf("replicated pagerank diverged (seed=%#x workers=%d): %v",
						seed, workers, err)
				}
			})
		}
	}
}

// TestReplicationEngages proves the replica path actually runs on a
// hub-skewed stream: hubs are replicated, messages ride replicas, and the
// diffused combine fires — otherwise the equivalence tests above would
// vacuously pass with replication never triggering.
func TestReplicationEngages(t *testing.T) {
	w := fuzzBA(0xba2001, gen.StreamConfig{
		InitialFraction: 0.6,
		DeleteRatio:     0.2,
		NumBatches:      4,
	})
	cfg := replicatedConfig(4)

	g := graph.FromEdges(w.NumV, w.Initial)
	e := NewAccumulative(g, algo.NewPageRank(w.NumV), cfg)
	var hubs int
	var msgs, combines int64
	for _, b := range w.Batches {
		st := e.ProcessBatch(b)
		if st.ReplicatedHubs > hubs {
			hubs = st.ReplicatedHubs
		}
		msgs += st.ReplicaMsgs
		combines += st.Combines
	}
	if hubs == 0 {
		t.Fatal("no hubs replicated on a BA stream with threshold 8")
	}
	if msgs == 0 {
		t.Error("no messages routed through replicas")
	}
	if combines == 0 {
		t.Error("diffused combine never fired")
	}
	t.Logf("accumulative: hubs=%d replicaMsgs=%d combines=%d", hubs, msgs, combines)

	// Selective side: SSSP on the symmetrized stream. Replica traffic here
	// requires a cross-flow edge into a hub, which the BA topology supplies.
	var sboth []graph.Edge
	for _, ed := range w.Initial {
		sboth = append(sboth, ed, graph.Edge{Src: ed.Dst, Dst: ed.Src, W: ed.W})
	}
	sg := graph.FromEdges(w.NumV, sboth)
	se := NewSelective(sg, algo.SSSP{Src: 0}, cfg)
	hubs, msgs, combines = 0, 0, 0
	for _, b := range w.Batches {
		st := se.ProcessBatch(Symmetrize(b))
		if st.ReplicatedHubs > hubs {
			hubs = st.ReplicatedHubs
		}
		msgs += st.ReplicaMsgs
		combines += st.Combines
	}
	if hubs == 0 {
		t.Fatal("selective: no hubs replicated on a BA stream with threshold 8")
	}
	if msgs == 0 {
		t.Error("selective: no messages routed through replicas")
	}
	if combines == 0 {
		t.Error("selective: diffused combine never fired")
	}
	t.Logf("selective: hubs=%d replicaMsgs=%d combines=%d", hubs, msgs, combines)
}
