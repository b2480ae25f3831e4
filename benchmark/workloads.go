package main

import (
	"time"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// kind selects the runner a workload goes through.
type kind int

const (
	kindSelective    kind = iota // library SSSP engine, closed loop
	kindAccumulative             // library PageRank engine, closed loop
	kindServe                    // SSSP behind serve + wal, open then closed loop
)

// spec is one benchmark workload. Sizes are fixed work, not fixed time: a
// repetition always covers the same stream positions (batch cost drifts
// along a stream as the graph grows, and every 8th batch repartitions), so
// a faster program finishes more repetitions inside -seconds instead of
// reaching different batches.
type spec struct {
	Name string
	Why  string
	Kind kind

	Graph       gen.Config // Seed is filled from -seed
	BatchSize   int
	Batches     int // per repetition; serve: closed-phase batches, ending off a snapshot boundary so recovery has a tail to replay
	DeleteRatio float64

	// KeepAwake: run with the idle-priority spinners of keepawake_linux.go.
	// Set where it steadies the workload and clear where it does not (README
	// "Keep-awake" has the measurements).
	KeepAwake bool

	// Serve only: the frozen open-loop schedule.
	OpenEvery time.Duration // one ingest batch is due every OpenEvery
	GetsPerS  int
	ScansPerS int // TopK(10) and Stat each, per second
}

// openLoopEvery is the frozen open-loop ingest schedule of serve-sssp-tt:
// one 200-update batch every 140 ms (README "How the open-loop rate was
// frozen"). It never changes: a change here makes every earlier result
// incomparable.
const openLoopEvery = 140 * time.Millisecond

// workloads lists the four benchmark workloads in BENCHMARK.json order.
var workloads = []spec{
	{
		Name: "sssp-tt-stream",
		Why:  "addition-heavy SSSP stream on skewed RMAT: graph apply and D-tree/flow upkeep dominate, every 8th batch repartitions, compute is small",
		Kind: kindSelective,
		Graph: gen.Config{Name: "TT", Kind: gen.RMAT, NumV: 106_000, NumE: 4_000_000,
			A: 0.60, B: 0.19, C: 0.19, MaxWeight: 8},
		BatchSize: 5000, Batches: 160, DeleteRatio: 0.1, KeepAwake: true,
	},
	{
		Name: "sssp-uk-churn",
		Why:  "same layers used the other way: half of every batch deletes, so key-edge trim and re-refinement carry the batch",
		Kind: kindSelective,
		Graph: gen.Config{Name: "UK", Kind: gen.BA, NumV: 40_000, NumE: 1_000_000,
			MaxWeight: 8},
		BatchSize: 4000, Batches: 240, DeleteRatio: 0.5, KeepAwake: true,
	},
	{
		Name: "pagerank-uk-stream",
		Why:  "over 97% of a batch is engine compute (delta push, scheduler, inbox): the kernel workload, and the bypass for graph, etree, wal and serve changes",
		Kind: kindAccumulative,
		Graph: gen.Config{Name: "UK", Kind: gen.BA, NumV: 10_000, NumE: 250_000,
			MaxWeight: 8},
		BatchSize: 500, Batches: 40, DeleteRatio: 0.1,
	},
	{
		Name: "serve-sssp-tt",
		Why:  "whole user path: socket, admission, group-commit fsync, apply, snapshot publish, read-visible; small batches so per-batch fixed cost dominates and reads contend with ingest",
		Kind: kindServe,
		Graph: gen.Config{Name: "TT", Kind: gen.RMAT, NumV: 106_000, NumE: 4_000_000,
			A: 0.60, B: 0.19, C: 0.19, MaxWeight: 8},
		BatchSize: 200, Batches: 168, DeleteRatio: 0.1, KeepAwake: true,
		OpenEvery: openLoopEvery, GetsPerS: 2000, ScansPerS: 2,
	},
}

// smoke shrinks a workload so all four finish in seconds: the schema test
// and the microbenchmarks' quick mode use it. Smoke numbers carry no claim.
func (s spec) smoke() spec {
	s.Graph.NumV /= 50
	s.Graph.NumE /= 50
	s.BatchSize /= 10
	s.Batches = 16
	if s.Kind == kindAccumulative {
		s.Batches = 6
	}
	s.OpenEvery /= 16 // one snapshot cycle in a fraction of a second
	return s
}

func findWorkload(name string) (spec, bool) {
	for _, s := range workloads {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs is everything a run is given: generated once from the seed, before
// any timing. The program under test sees only these.
type inputs struct {
	spec  spec
	w     gen.Workload
	src   graph.VertexID // SSSP source, see bestConnected
	reads []uint32       // seeded vertex ids for point reads
}

func (in inputs) alg() algo.SSSP { return algo.SSSP{Src: in.src} }

// bestConnected picks the SSSP source: the vertex with the most out-edges in
// the initial graph (lowest id on a tie). A fixed id will not do: on the BA
// graphs vertex 0 has between 5 and 150 initial out-edges depending on the
// seed, and from a poorly connected source the whole shortest-path tree hangs
// off a handful of edges, so one seed's stream does twice another's
// relaxations (2.9 M to 6.1 M over ten seeds of sssp-uk-churn; 2.6 M to 2.9 M
// from the best-connected vertex). On the RMAT graphs it is the top hub.
func bestConnected(numV int, initial []graph.Edge) graph.VertexID {
	deg := make([]int32, numV)
	for _, e := range initial {
		deg[e.Src]++
	}
	best := 0
	for v, d := range deg {
		if d > deg[best] {
			best = v
		}
	}
	return graph.VertexID(best)
}

// generate builds the workload's inputs from seed alone: the same seed
// always gives the same graph, stream and read set. nBatches is how many
// update batches the stream must hold.
func generate(s spec, seed uint64, nBatches int) inputs {
	s.Graph.Seed = rng.Mix64(seed)
	edges := gen.Generate(s.Graph)
	w := gen.BuildWorkload(s.Graph.NumV, edges, gen.StreamConfig{
		InitialFraction: 0.5,
		DeleteRatio:     s.DeleteRatio,
		BatchSize:       s.BatchSize,
		NumBatches:      nBatches,
		Seed:            rng.Mix64(seed + 1),
	})
	r := rng.New(rng.Mix64(seed + 2))
	reads := make([]uint32, 1<<16)
	for i := range reads {
		reads[i] = uint32(r.Intn(s.Graph.NumV))
	}
	return inputs{spec: s, w: w, src: bestConnected(w.NumV, w.Initial), reads: reads}
}
