// Package expr is the experiment harness: it reconstructs every table and
// figure of the paper's evaluation (§VII) from the engines in this
// repository. cmd/bench and the root bench_test.go are thin wrappers around
// the runners here; EXPERIMENTS.md records the paper-vs-measured outcomes.
package expr

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphbolt"
	"repro/internal/kickstarter"
	"repro/internal/metrics"
)

// Scale bounds an experiment so the same runner serves quick CI runs and
// fuller reproductions.
type Scale struct {
	// EdgeCap caps each dataset's edge count (0 = the preset size).
	EdgeCap int `json:"edge_cap"`
	// BatchSize is the per-batch update count ("100K edge mutations"
	// scaled to the dataset).
	BatchSize int `json:"batch_size"`
	// Batches is the number of update batches per run.
	Batches int `json:"batches"`
	// MaxNodes bounds the distributed sweep.
	MaxNodes int `json:"max_nodes"`
	// Workers for the engines (0 = GOMAXPROCS).
	Workers int `json:"workers"`
	// Rec, when non-nil, collects every batch the figure runners process
	// into the machine-readable perf trajectory (cmd/bench -json). Nil
	// costs one pointer comparison per batch, like engine.Config.Metrics.
	Rec *metrics.BatchRecorder `json:"-"`
}

// registry returns the recorder's backing registry (nil when metrics are
// off), for runners that feed extra counters such as cachesim stats.
func (sc Scale) registry() *metrics.Registry { return sc.Rec.Registry() }

// Quick is the default laptop-scale configuration.
func Quick() Scale {
	return Scale{EdgeCap: 60_000, BatchSize: 2_000, Batches: 3, MaxNodes: 16}
}

// Full uses the dataset presets untouched (honours GRAPHFLY_SCALE).
func Full() Scale {
	return Scale{EdgeCap: 0, BatchSize: 100_000, Batches: 3, MaxNodes: 16}
}

// Table is one experiment result: typed cells for machine consumers
// (BENCH_*.json, scripts/benchdiff), rendered text for the CLI.
type Table struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	Header []string `json:"header"`
	Cells  [][]Cell `json:"rows"`
}

// AddRow appends one row of typed cells.
func (t *Table) AddRow(cells ...Cell) { t.Cells = append(t.Cells, cells) }

// Rows renders every row as strings, in header order.
func (t Table) Rows() [][]string {
	rows := make([][]string, len(t.Cells))
	for i, r := range t.Cells {
		row := make([]string, len(r))
		for j, c := range r {
			row[j] = c.Text
		}
		rows[i] = row
	}
	return rows
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	rows := t.Rows()
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// dataset returns the (possibly capped) generator config for a code.
func dataset(code string, sc Scale) gen.Config {
	cfg := gen.Dataset(code)
	if sc.EdgeCap > 0 && cfg.NumE > sc.EdgeCap {
		f := float64(sc.EdgeCap) / float64(cfg.NumE)
		cfg.NumE = sc.EdgeCap
		nv := int(float64(cfg.NumV) * f)
		if nv < 64 {
			nv = 64
		}
		cfg.NumV = nv
	}
	return cfg
}

// workload builds the streaming workload for a dataset under the scale.
func workload(code string, sc Scale, deleteRatio float64, seed uint64) gen.Workload {
	cfg := dataset(code, sc)
	edges := gen.Generate(cfg)
	batch := sc.BatchSize
	if batch > len(edges)/2 {
		batch = len(edges) / 2
	}
	return gen.BuildWorkload(cfg.NumV, edges, gen.StreamConfig{
		InitialFraction: 0.5,
		DeleteRatio:     deleteRatio,
		BatchSize:       batch,
		NumBatches:      sc.Batches,
		Seed:            seed,
	})
}

// SelAlg names a selective algorithm and builds it.
type SelAlg struct {
	Name string
	Make func(w gen.Workload) algo.Selective
}

// AccAlg names an accumulative algorithm and builds it.
type AccAlg struct {
	Name string
	Make func(w gen.Workload) algo.Accumulative
}

// SelectiveAlgs returns the paper's four selective algorithms.
func SelectiveAlgs() []SelAlg {
	return []SelAlg{
		{"SSSP", func(gen.Workload) algo.Selective { return algo.SSSP{Src: 0} }},
		{"SSWP", func(gen.Workload) algo.Selective { return algo.SSWP{Src: 0} }},
		{"BFS", func(gen.Workload) algo.Selective { return algo.BFS{Src: 0} }},
		{"CC", func(gen.Workload) algo.Selective { return algo.CC{} }},
	}
}

// AccumulativeAlgs returns the paper's two accumulative algorithms.
func AccumulativeAlgs() []AccAlg {
	return []AccAlg{
		{"PageRank", func(w gen.Workload) algo.Accumulative { return algo.NewPageRank(w.NumV) }},
		{"LP", func(w gen.Workload) algo.Accumulative {
			seeds := map[graph.VertexID]int{}
			for i := 0; i < 16; i++ {
				seeds[graph.VertexID((i*2654435761)%w.NumV)] = i % 4
			}
			return algo.NewLabelPropagation(4, seeds)
		}},
	}
}

// incrementalProcessor is any engine that consumes batches.
type incrementalProcessor interface {
	ProcessBatch(graph.Batch) engine.BatchStats
}

// runBatches drives an engine through a workload's batches and returns the
// total incremental time and the per-batch stats. When the scale carries a
// recorder, every batch lands in the perf trajectory (all engines, baselines
// included — the trajectory describes the whole bench run).
func runBatches(sc Scale, e incrementalProcessor, w gen.Workload) (time.Duration, []engine.BatchStats) {
	var total time.Duration
	stats := make([]engine.BatchStats, 0, len(w.Batches))
	var mem runtime.MemStats
	for _, b := range w.Batches {
		var allocs, bytes uint64
		if sc.Rec != nil {
			runtime.ReadMemStats(&mem)
			allocs, bytes = mem.Mallocs, mem.TotalAlloc
		}
		st := e.ProcessBatch(b)
		total += st.Total
		stats = append(stats, st)
		if sc.Rec != nil {
			p := st.Point()
			runtime.ReadMemStats(&mem)
			p.Allocs = int64(mem.Mallocs - allocs)
			p.AllocBytes = int64(mem.TotalAlloc - bytes)
			sc.Rec.Observe(p)
		}
	}
	return total, stats
}

// buildGraph materializes a workload's initial graph, symmetrized when the
// algorithm needs undirected semantics.
func buildGraph(w gen.Workload, symmetric bool) *graph.Streaming {
	edges := w.Initial
	if symmetric {
		var both []graph.Edge
		for _, e := range edges {
			both = append(both, e, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
		}
		edges = both
	}
	return graph.FromEdges(w.NumV, edges)
}

// graphflySelective builds the GraphFly engine for a selective algorithm.
func graphflySelective(w gen.Workload, a algo.Selective, cfg engine.Config) *engine.Selective {
	return engine.NewSelective(buildGraph(w, a.Symmetric()), a, cfg)
}

// kickstarterEngine builds the baseline for a selective algorithm.
func kickstarterEngine(w gen.Workload, a algo.Selective, cfg engine.Config) *kickstarter.Engine {
	return kickstarter.New(buildGraph(w, a.Symmetric()), a, cfg)
}

// graphflyAccumulative builds the GraphFly engine for an accumulative
// algorithm.
func graphflyAccumulative(w gen.Workload, a algo.Accumulative, cfg engine.Config) *engine.Accumulative {
	return engine.NewAccumulative(buildGraph(w, a.Symmetric()), a, cfg)
}

// graphboltEngine builds the baseline for an accumulative algorithm.
func graphboltEngine(w gen.Workload, a algo.Accumulative, cfg engine.Config) *graphbolt.Engine {
	return graphbolt.New(buildGraph(w, a.Symmetric()), a, cfg)
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
