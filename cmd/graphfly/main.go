// Command graphfly mirrors the paper artifact's per-algorithm binaries as
// subcommands: it generates (or loads) a graph, samples an update stream,
// and runs the requested algorithm incrementally, printing per-batch
// statistics and a result digest.
//
// Examples (cf. the artifact appendix):
//
//	graphfly -algo BFS  -source 1 -numberOfUpdateBatches 2 -nEdges 10000 -dataset LJ
//	graphfly -algo SSSP -source 1 -nEdges 100000 -dataset UK -deletions 0.3
//	graphfly -algo PageRank -dataset TW -nEdges 50000
//	graphfly -algo LabelPropagation -dataset LJ -labels 4
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/wal"
)

func main() {
	algoName := flag.String("algo", "SSSP", "BFS | SSSP | SSWP | CC | PageRank | LabelPropagation")
	source := flag.Uint("source", 1, "source vertex for BFS/SSSP/SSWP")
	batches := flag.Int("numberOfUpdateBatches", 1, "number of update batches")
	nEdges := flag.Int("nEdges", 100000, "updates per batch")
	datasetCode := flag.String("dataset", "LJ", "dataset preset: FT TT TW UK LJ")
	deletions := flag.Float64("deletions", 0.1, "fraction of each batch that is deletions")
	labels := flag.Int("labels", 4, "label count for LabelPropagation")
	seedsFile := flag.String("seedsFile", "", "LabelPropagation seeds file ('vertex label' per line)")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	flowCap := flag.Int("flowCap", 0, "dependency-flow size cap (0 = default)")
	replicateHubs := flag.Bool("replicate-hubs", false, "split hub fan-in across per-worker replicas with diffused combining")
	hubReplicas := flag.Int("hub-replicas", 0, "replicas per hub with -replicate-hubs (0 = one per worker)")
	hubThreshold := flag.Int("hub-threshold", 0, "override the hub-index build threshold (0 = graph default 64; drop stays threshold/4)")
	seed := flag.Uint64("seed", 42, "stream sampling seed")
	outputFile := flag.String("outputFile", "", "write the converged values here ('-' = stdout)")
	graphPath := flag.String("graphPath", "", "load the initial graph from an edge-tuple file instead of generating it")
	streamPath := flag.String("streamPath", "", "load the update stream from a stream file instead of sampling it")
	walOn := flag.Bool("wal", false, "write-ahead log every batch and snapshot periodically (single node); with an existing -waldir, recover from it first")
	walDir := flag.String("waldir", "", "directory for WAL segments and snapshots (required with -wal)")
	fsync := flag.String("fsync", "interval", "WAL fsync policy: interval | always | off")
	snapEvery := flag.Int("snapshot-every", 16, "batches between snapshot checkpoints in -wal mode")
	clusterN := flag.Int("cluster", 0, "spawn this many real graphfly-worker processes and run the batches over the socket runtime (selective algorithms only)")
	clusterDir := flag.String("clusterDir", "", "base directory for per-worker WALs, checkpoints, and pid files (required with -cluster)")
	workerBin := flag.String("workerBin", "", "path to the graphfly-worker binary (default: sibling of this binary, then $PATH)")
	clusterAddr := flag.String("addr", "127.0.0.1:0", "coordinator listen address in -cluster mode")
	showMetrics := flag.Bool("metrics", false, "print engine counters and phase histograms at exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here")
	memprofile := flag.String("memprofile", "", "write a heap profile here at exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace here")
	flag.Parse()

	profStop, err := prof.Start(*cpuprofile, *tracePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphfly: %v\n", err)
		os.Exit(1)
	}
	defer profStop()

	fsyncPolicy, ok := wal.ParseFsync(*fsync)
	if !ok {
		fmt.Fprintf(os.Stderr, "graphfly: unknown fsync policy %q (want interval, always, or off)\n", *fsync)
		os.Exit(2)
	}
	if *walOn {
		switch {
		case *walDir == "":
			fmt.Fprintln(os.Stderr, "graphfly: -wal requires -waldir")
			os.Exit(2)
		case *snapEvery < 1:
			fmt.Fprintln(os.Stderr, "graphfly: -snapshot-every must be >= 1")
			os.Exit(2)
		}
	}
	if *clusterN > 0 {
		switch {
		case *clusterDir == "":
			fmt.Fprintln(os.Stderr, "graphfly: -cluster requires -clusterDir")
			os.Exit(2)
		case *walOn:
			fmt.Fprintln(os.Stderr, "graphfly: -cluster is exclusive with -wal (each worker process owns its own WAL and checkpoints under -clusterDir)")
			os.Exit(2)
		case *snapEvery < 1:
			fmt.Fprintln(os.Stderr, "graphfly: -snapshot-every must be >= 1")
			os.Exit(2)
		}
	}

	// SIGTERM/SIGINT cancel this context; the batch loop stops at the next
	// boundary and every mode flushes its durable state on the way out.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stopSignals()

	var w gen.Workload
	datasetName := *datasetCode
	batchSize := *nEdges
	if *graphPath != "" {
		initial, numV, err := gio.LoadEdgesFile(*graphPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphfly: %v\n", err)
			os.Exit(1)
		}
		w = gen.Workload{NumV: numV, Initial: initial}
		datasetName = *graphPath
		if *streamPath != "" {
			batchesIn, err := gio.LoadStreamFile(*streamPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "graphfly: %v\n", err)
				os.Exit(1)
			}
			w.Batches = batchesIn
		}
	} else {
		cfg := gen.Dataset(*datasetCode)
		edges := gen.Generate(cfg)
		if batchSize > len(edges)/2 {
			batchSize = len(edges) / 2
			fmt.Fprintf(os.Stderr, "graphfly: batch capped to %d (dataset has %d edges)\n", batchSize, len(edges))
		}
		w = gen.BuildWorkload(cfg.NumV, edges, gen.StreamConfig{
			InitialFraction: 0.5,
			DeleteRatio:     *deletions,
			BatchSize:       batchSize,
			NumBatches:      *batches,
			Seed:            *seed,
		})
	}
	eCfg := engine.Config{
		Workers: *workers, FlowCap: *flowCap,
		HubReplication: *replicateHubs, HubReplicas: *hubReplicas, HubThreshold: *hubThreshold,
	}
	var reg *metrics.Registry
	if *showMetrics {
		reg = metrics.NewRegistry()
		eCfg.Metrics = reg
	}

	var (
		values  func() []float64
		run     func(graph.Batch) (engine.BatchStats, error)
		crt     *clusterRuntime
		durable *wal.Durable
		dim     = 1
	)
	dc := wal.DurableConfig{
		Wal:           wal.Options{Dir: *walDir, Policy: fsyncPolicy, Metrics: reg},
		SnapshotEvery: *snapEvery,
	}
	src := graph.VertexID(*source)
	switch *algoName {
	case "BFS", "SSSP", "SSWP", "CC":
		var a algo.Selective
		switch *algoName {
		case "BFS":
			a = algo.BFS{Src: src}
		case "SSSP":
			a = algo.SSSP{Src: src}
		case "SSWP":
			a = algo.SSWP{Src: src}
		case "CC":
			a = algo.CC{}
		}
		initial := w.Initial
		if a.Symmetric() {
			var both []graph.Edge
			for _, e := range initial {
				both = append(both, e, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
			}
			initial = both
		}
		g := graph.FromEdges(w.NumV, initial)
		switch {
		case *clusterN > 0:
			var err error
			crt, err = startCluster(ctx, g, a, *clusterN, *flowCap, *snapEvery, *clusterDir, *workerBin, *clusterAddr, reg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "graphfly: %v\n", err)
				os.Exit(1)
			}
			values = crt.coord.Values
		case *walOn:
			durable = openDurable(g, wal.SelectiveFamily(a), eCfg, dc)
		default:
			eng := engine.NewSelective(g, a, eCfg)
			values = eng.Values
			run = eng.ProcessBatchE
		}
	case "PageRank", "LabelPropagation":
		var a algo.Accumulative
		if *algoName == "PageRank" {
			a = algo.NewPageRank(w.NumV)
		} else {
			seeds := map[graph.VertexID]int{}
			if *seedsFile != "" {
				var err error
				seeds, err = gio.LoadSeedsFile(*seedsFile)
				if err != nil {
					fmt.Fprintf(os.Stderr, "graphfly: %v\n", err)
					os.Exit(1)
				}
			} else {
				for i := 0; i < 4**labels; i++ {
					seeds[graph.VertexID((i*2654435761)%w.NumV)] = i % *labels
				}
			}
			a = algo.NewLabelPropagation(*labels, seeds)
			dim = *labels
		}
		if *clusterN > 0 {
			fmt.Fprintf(os.Stderr, "graphfly: -cluster supports the selective algorithms only (%s is accumulative)\n", *algoName)
			os.Exit(2)
		}
		g := graph.FromEdges(w.NumV, w.Initial)
		if *walOn {
			durable = openDurable(g, wal.AccumulativeFamily(a), eCfg, dc)
		} else {
			eng := engine.NewAccumulative(g, a, eCfg)
			values = eng.Values
			run = eng.ProcessBatchE
		}
	default:
		fmt.Fprintf(os.Stderr, "graphfly: unknown algorithm %q\n", *algoName)
		os.Exit(2)
	}

	if durable != nil {
		values = durable.Eng.Values
		run = func(b graph.Batch) (engine.BatchStats, error) { return durable.ProcessBatch(ctx, b) }
	}

	fmt.Printf("graphfly %s on %s: %d vertices, %d initial edges, %d batches\n",
		*algoName, datasetName, w.NumV, len(w.Initial), len(w.Batches))
	if crt != nil {
		fmt.Printf("cluster: %d worker processes via %s\n", *clusterN, crt.coord.Addr())
	}
	interrupted := false
	for bi, b := range w.Batches {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		if crt != nil {
			if err := crt.coord.ProcessBatch(ctx, b); err != nil {
				if ctx.Err() != nil {
					interrupted = true
					break
				}
				crt.close()
				fmt.Fprintf(os.Stderr, "graphfly: batch %d rejected: %v\n", bi, err)
				os.Exit(1)
			}
			fmt.Printf("batch %d: seq=%d live=%d\n", bi, crt.coord.BoundarySeq(), crt.coord.LiveWorkers())
			continue
		}
		st, err := run(b)
		if err != nil {
			if ctx.Err() != nil {
				interrupted = true
				break
			}
			fmt.Fprintf(os.Stderr, "graphfly: batch %d rejected: %v\n", bi, err)
			os.Exit(1)
		}
		fmt.Printf("batch %d: applied=%d trimmed=%d flows=%d units=%d levels=%d msgs=%d relax=%d time=%v\n",
			bi, st.Applied, st.Trimmed, st.Impacted, st.Units, st.Levels, st.CrossMsgs, st.Relaxations, st.Total)
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "graphfly: interrupted — flushing durable state")
	}
	if durable != nil {
		if interrupted {
			if durable.Dirty() {
				// The signal landed mid-batch: the engine state is between
				// boundaries and must not be snapshotted. The batch is
				// already in the WAL; recovery replays it onto the last
				// good snapshot.
				fmt.Fprintln(os.Stderr, "graphfly: interrupted mid-batch — skipping final snapshot; recovery will replay the WAL tail")
			} else if err := durable.Snapshot(); err != nil {
				// Final checkpoint so a later run recovers instantly instead
				// of replaying the whole log tail.
				fmt.Fprintf(os.Stderr, "graphfly: final snapshot: %v\n", err)
				os.Exit(1)
			}
		}
		if err := durable.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "graphfly: wal close: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wal: %s durable through seq %d (fsync=%s, snapshot every %d)\n",
			*walDir, durable.Seq(), fsyncPolicy, *snapEvery)
	}
	if crt != nil {
		// Bye the workers (each writes a final checkpoint) and reap them.
		crt.close()
		fmt.Printf("cluster: boundary seq %d\n", crt.coord.BoundarySeq())
	}
	digest(values(), dim)
	if *outputFile != "" {
		writeValues(*outputFile, values(), dim)
	}
	if reg != nil {
		fmt.Print(reg.Snapshot().String())
	}
	profStop()
	if err := prof.WriteHeap(*memprofile); err != nil {
		fmt.Fprintf(os.Stderr, "graphfly: %v\n", err)
		os.Exit(1)
	}
}

// openDurable opens the durable engine of -waldir. An existing snapshot
// wins over the generated initial graph g: the stream continues from the
// recovered state; otherwise a fresh engine over g is made durable.
func openDurable(g *graph.Streaming, fam wal.Family, eCfg engine.Config, dc wal.DurableConfig) *wal.Durable {
	dir := dc.Wal.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "graphfly: %v\n", err)
		os.Exit(1)
	}
	if !wal.HasSnapshot(dir) {
		d, err := wal.NewDurable(g, fam, eCfg, dc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphfly: %v\n", err)
			os.Exit(1)
		}
		return d
	}
	d, rs, err := wal.Recover(fam, eCfg, dc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphfly: recovery from %s failed: %v\n", dir, err)
		os.Exit(1)
	}
	fmt.Printf("recovered %s: snapshot seq %d, replayed %d batches to seq %d in %v\n",
		dir, rs.SnapshotSeq, rs.Replayed, rs.LastSeq, rs.Duration)
	return d
}

// digest prints a short summary of the converged values.
func digest(vals []float64, dim int) {
	n := len(vals) / dim
	reached, sum := 0, 0.0
	for v := 0; v < n; v++ {
		x := vals[v*dim]
		if !math.IsInf(x, 0) {
			sum += x
			if x != 0 {
				reached++
			}
		}
	}
	fmt.Printf("result: %d vertices, %d nonzero, component-0 sum %.6g\n", n, reached, sum)
}

func writeValues(path string, vals []float64, dim int) {
	f := os.Stdout
	if path != "-" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphfly: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
	}
	n := len(vals) / dim
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sort.Ints(ids)
	for _, v := range ids {
		fmt.Fprintf(f, "%d", v)
		for d := 0; d < dim; d++ {
			fmt.Fprintf(f, " %g", vals[v*dim+d])
		}
		fmt.Fprintln(f)
	}
}
