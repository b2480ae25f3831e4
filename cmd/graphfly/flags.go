package main

// The flag groups the subcommands share: each flag is defined once, here, and
// checked once after parsing, so bad input exits 2 instead of panicking in a
// generator or an engine. A subcommand registers the groups it uses.

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// workloadFlags pick the paper's workload: a dataset preset, its 50 %
// initial split, and a stream of -numberOfUpdateBatches x -nEdges updates.
type workloadFlags struct {
	dataset         *string
	nEdges, batches *int
	deletions       *float64
	seed            *uint64
}

func addWorkload(fs *flag.FlagSet, nEdges, batches int) *workloadFlags {
	return &workloadFlags{
		dataset:   fs.String("dataset", "LJ", "dataset preset: "+strings.Join(gen.DatasetCodes(), " ")),
		nEdges:    fs.Int("nEdges", nEdges, "updates per batch"),
		batches:   fs.Int("numberOfUpdateBatches", batches, "number of update batches"),
		deletions: fs.Float64("deletions", 0.1, "fraction of each batch that is deletions"),
		seed:      fs.Uint64("seed", 42, "stream sampling seed"),
	}
}

func (f *workloadFlags) check() error {
	switch codes := gen.DatasetCodes(); {
	case !slices.Contains(codes, *f.dataset):
		return fmt.Errorf("unknown -dataset %q (want one of %s)", *f.dataset, strings.Join(codes, " "))
	case *f.nEdges < 1:
		return errors.New("-nEdges must be >= 1")
	case *f.batches < 0:
		return errors.New("-numberOfUpdateBatches must be >= 0")
	case !(*f.deletions >= 0 && *f.deletions <= 1):
		return fmt.Errorf("-deletions %g is outside [0, 1]", *f.deletions)
	}
	return nil
}

// build regenerates the deterministic dataset workload with numBatches
// batches. gen's prefix stability makes any batch count a prefix of any
// longer run with the same seed: serve takes the initial half, query ingest
// the stream, and run replays it as the oracle.
func (f *workloadFlags) build(numBatches int) gen.Workload {
	cfg := gen.Dataset(*f.dataset)
	edges := gen.Generate(cfg)
	batchSize := *f.nEdges
	if batchSize > len(edges)/2 {
		batchSize = len(edges) / 2
		fmt.Fprintf(os.Stderr, "%s: batch capped to %d (dataset has %d edges)\n", cmdline.Name(), batchSize, len(edges))
	}
	return gen.BuildWorkload(cfg.NumV, edges, gen.StreamConfig{
		InitialFraction: 0.5,
		DeleteRatio:     *f.deletions,
		BatchSize:       batchSize,
		NumBatches:      numBatches,
		Seed:            *f.seed,
	})
}

// algoFlags pick the algorithm.
type algoFlags struct {
	name   *string
	source *uint
}

func addAlgo(fs *flag.FlagSet) *algoFlags {
	return &algoFlags{
		name:   fs.String("algo", "SSSP", "BFS | SSSP | SSWP | CC | triangle | kcore; run also PageRank | LabelPropagation"),
		source: fs.Uint("source", 1, "source vertex for BFS/SSSP/SSWP"),
	}
}

// algorithm is a parsed -algo.
type algorithm struct {
	name      string
	fam       wal.Family     // the engine family every mode builds from
	symmetric bool           // the initial graph is mirrored
	sel       algo.Selective // what -cluster runs; nil outside the selective family
	source    *uint          // -source when the algorithm reads it, else nil
	dim       int            // values per vertex
}

// parse resolves -algo. acc builds the accumulative algorithms from what
// only run knows (the vertex count, the label seeds); without it they are
// rejected.
func (f *algoFlags) parse(acc func(name string) algo.Accumulative) (algorithm, error) {
	src := graph.VertexID(*f.source)
	a := algorithm{name: *f.name, dim: 1}
	var alg interface{ Symmetric() bool }
	switch a.name {
	case "BFS":
		a.sel, a.source = algo.BFS{Src: src}, f.source
	case "SSSP":
		a.sel, a.source = algo.SSSP{Src: src}, f.source
	case "SSWP":
		a.sel, a.source = algo.SSWP{Src: src}, f.source
	case "CC":
		a.sel = algo.CC{}
	case "triangle", "TC":
		a.fam, alg = wal.LocalFamily(algo.TriangleCount{}), algo.TriangleCount{}
	case "kcore", "kCore", "KCore":
		a.fam, alg = wal.LocalFamily(algo.KCore{}), algo.KCore{}
	case "PageRank", "LabelPropagation":
		if acc != nil {
			ac := acc(a.name)
			a.fam, alg, a.dim = wal.AccumulativeFamily(ac), ac, ac.Dim()
			break
		}
		fallthrough
	default:
		return a, fmt.Errorf("unknown -algo %q", a.name)
	}
	if a.sel != nil {
		a.fam, alg = wal.SelectiveFamily(a.sel), a.sel
	}
	a.symmetric = alg.Symmetric()
	return a, nil
}

// checkSource rejects a -source outside the graph, once the graph is known.
func (a algorithm) checkSource(numV int) error {
	if a.source != nil && *a.source >= uint(numV) {
		return fmt.Errorf("-source %d is outside the graph's %d vertices", *a.source, numV)
	}
	return nil
}

// initialGraph builds w's initial graph, every edge doubled for the
// symmetric algorithms; the engines symmetrize streamed batches themselves.
func (a algorithm) initialGraph(w gen.Workload) *graph.Streaming {
	initial := w.Initial
	if a.symmetric {
		initial = make([]graph.Edge, 0, 2*len(w.Initial))
		for _, e := range w.Initial {
			initial = append(initial, e, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
		}
	}
	return graph.FromEdges(w.NumV, initial)
}

// engineFlags configure the engine and its write-ahead log.
type engineFlags struct {
	workers, flowCap, snapEvery *int
	walDir, fsync               *string
	metrics                     *bool
}

func addEngine(fs *flag.FlagSet, fsync string) *engineFlags {
	return &engineFlags{
		workers:   fs.Int("workers", 0, "engine worker goroutines (0 = GOMAXPROCS)"),
		flowCap:   fs.Int("flowCap", 0, "dependency-flow size cap (0 = default)"),
		walDir:    fs.String("waldir", "", "WAL segment and snapshot directory, recovered from when it holds a snapshot (run: the WAL is on iff set; with -cluster, the base of the per-worker directories and pid files)"),
		fsync:     fs.String("fsync", fsync, "WAL fsync policy: interval | always | off"),
		snapEvery: fs.Int("snapshot-every", 16, "batches between snapshot checkpoints (serve: 0 = only at start and shutdown)"),
		metrics:   fs.Bool("metrics", false, "print counters and histograms at exit"),
	}
}

func (f *engineFlags) check() error {
	switch _, ok := wal.ParseFsync(*f.fsync); {
	case !ok:
		return fmt.Errorf("unknown -fsync policy %q (want interval, always, or off)", *f.fsync)
	case *f.snapEvery < 0:
		return errors.New("-snapshot-every must be >= 0")
	case *f.workers < 0:
		return errors.New("-workers must be >= 0")
	case *f.flowCap < 0:
		return errors.New("-flowCap must be >= 0")
	}
	return nil
}

func (f *engineFlags) config() engine.Config {
	return engine.Config{Workers: *f.workers, FlowCap: *f.flowCap}
}

func (f *engineFlags) durableConfig(reg *metrics.Registry) wal.DurableConfig {
	policy, _ := wal.ParseFsync(*f.fsync)
	return wal.DurableConfig{
		Wal:           wal.Options{Dir: *f.walDir, Policy: policy, Metrics: reg},
		SnapshotEvery: *f.snapEvery,
	}
}

func addAddr(fs *flag.FlagSet, def, usage string) *string { return fs.String("addr", def, usage) }

// openDurable opens alg's durable engine in dc's directory. An existing
// snapshot wins over the initial graph: the stream continues from the
// recovered state. Otherwise a fresh engine over initial() is made durable.
func openDurable(alg algorithm, eCfg engine.Config, dc wal.DurableConfig, initial func() *graph.Streaming) *wal.Durable {
	dir := dc.Wal.Dir
	must(os.MkdirAll(dir, 0o755))
	if !wal.HasSnapshot(dir) {
		g := initial()
		usage(alg.checkSource(g.NumVertices()))
		d, err := wal.NewDurable(g, alg.fam, eCfg, dc)
		must(err)
		return d
	}
	d, rs, err := wal.Recover(alg.fam, eCfg, dc)
	if err != nil {
		fatalf("recovery from %s failed: %v", dir, err)
	}
	fmt.Printf("recovered %s: snapshot seq %d, replayed %d batches to seq %d in %v (restore %v)\n",
		dir, rs.SnapshotSeq, rs.Replayed, rs.LastSeq, rs.Duration, rs.Restore)
	usage(alg.checkSource(len(d.Eng.Values()) / alg.dim))
	return d
}
