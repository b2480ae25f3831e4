package main

// graphfly run (the default subcommand) mirrors the paper artifact's
// per-algorithm binaries: it generates (or loads) a graph, samples an update
// stream, and runs the algorithm incrementally, printing per-batch
// statistics and a result digest. -waldir makes it durable, -cluster N
// spreads it over N worker processes.

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
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

func runCmd() (*flag.FlagSet, func()) {
	fs := flag.NewFlagSet("graphfly", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: graphfly [run] [flags]   (other subcommands: serve, query <op>, worker, gen)")
		fs.PrintDefaults()
	}
	wl, af, ef := addWorkload(fs, 100000, 1), addAlgo(fs), addEngine(fs, "interval")
	addr := addAddr(fs, "127.0.0.1:0", "coordinator listen address in -cluster mode")
	labels := fs.Int("labels", 4, "label count for LabelPropagation")
	seedsFile := fs.String("seedsFile", "", "LabelPropagation seeds file ('vertex label' per line)")
	hubThreshold := fs.Int("hub-threshold", 0, "override the out-list hub-index build threshold (0 = graph default 64; drop stays threshold/4; in-lists carry no index)")
	outputFile := fs.String("outputFile", "", "write the converged values here ('-' = stdout)")
	graphPath := fs.String("graphPath", "", "load the initial graph from an edge-tuple file instead of generating it")
	streamPath := fs.String("streamPath", "", "load the update stream from a stream file instead of sampling it")
	clusterN := fs.Int("cluster", 0, "spawn this many 'graphfly worker' processes and run the batches over the socket runtime (selective algorithms only; needs -waldir)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile here")
	memprofile := fs.String("memprofile", "", "write a heap profile here at exit")
	tracePath := fs.String("trace", "", "write a runtime execution trace here")
	return fs, func() {
		usage(wl.check())
		usage(ef.check())
		walDir, cluster := *ef.walDir, *clusterN > 0
		switch {
		case *labels < 1:
			usagef("-labels must be >= 1")
		case *hubThreshold < 0:
			usagef("-hub-threshold must be >= 0")
		case walDir != "" && *ef.snapEvery < 1:
			usagef("-snapshot-every must be >= 1")
		case cluster && walDir == "":
			usagef("-cluster requires -waldir (each worker process owns its WAL and checkpoints under it)")
		}
		profStop, err := prof.Start(*cpuprofile, *tracePath)
		must(err)
		defer profStop()

		// SIGTERM/SIGINT cancel this context; the batch loop stops at the
		// next boundary and every mode flushes its durable state on the way out.
		ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
		defer stopSignals()

		w, datasetName := loadWorkload(wl, *graphPath, *streamPath)
		alg, err := af.parse(func(name string) algo.Accumulative {
			if name == "PageRank" {
				return algo.NewPageRank(w.NumV)
			}
			return algo.NewLabelPropagation(*labels, lpSeeds(*seedsFile, *labels, w.NumV))
		})
		if err != nil {
			usagef("%v", err)
		}
		if cluster && alg.sel == nil {
			usagef("-cluster supports the selective algorithms only (%s is not)", alg.name)
		}
		eCfg := ef.config()
		eCfg.HubThreshold = *hubThreshold
		var reg *metrics.Registry
		if *ef.metrics {
			reg = metrics.NewRegistry()
			eCfg.Metrics = reg
		}
		dc := ef.durableConfig(reg)

		// run applies one batch and returns its progress line.
		var (
			values  func() []float64
			run     func(graph.Batch) (string, error)
			crt     *clusterRuntime
			durable *wal.Durable
		)
		g := alg.initialGraph(w)
		if walDir == "" || cluster {
			usage(alg.checkSource(g.NumVertices()))
		}
		switch {
		case cluster:
			crt, err = startCluster(ctx, g, alg.sel, *clusterN, *ef.flowCap, *ef.snapEvery, walDir, *addr, reg)
			must(err)
			values = crt.coord.Values
			run = func(b graph.Batch) (string, error) {
				err := crt.coord.ProcessBatch(ctx, b)
				return fmt.Sprintf("seq=%d live=%d", crt.coord.BoundarySeq(), crt.coord.LiveWorkers()), err
			}
		case walDir != "":
			durable = openDurable(alg, eCfg, dc, func() *graph.Streaming { return g })
			values = durable.Eng.Values
			run = func(b graph.Batch) (string, error) { return stats(durable.ProcessBatch(ctx, b)) }
		default:
			eng := alg.fam.Build(g, eCfg)
			values = eng.Values
			run = func(b graph.Batch) (string, error) { return stats(eng.ProcessBatchCtx(context.Background(), b)) }
		}

		fmt.Printf("graphfly %s on %s: %d vertices, %d initial edges, %d batches\n",
			alg.name, datasetName, w.NumV, len(w.Initial), len(w.Batches))
		if crt != nil {
			fmt.Printf("cluster: %d worker processes via %s\n", *clusterN, crt.coord.Addr())
		}
		for bi, b := range w.Batches {
			if ctx.Err() != nil {
				break
			}
			line, err := run(b)
			if err != nil {
				if ctx.Err() != nil {
					break
				}
				if crt != nil {
					crt.close()
				}
				fatalf("batch %d rejected: %v", bi, err)
			}
			fmt.Printf("batch %d: %s\n", bi, line)
		}
		interrupted := ctx.Err() != nil
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
					// Final checkpoint so a later run recovers instantly
					// instead of replaying the whole log tail.
					fatalf("final snapshot: %v", err)
				}
			}
			if err := durable.Close(); err != nil {
				fatalf("wal close: %v", err)
			}
			fmt.Printf("wal: %s durable through seq %d (fsync=%s, snapshot every %d)\n",
				walDir, durable.Seq(), dc.Wal.Policy, dc.SnapshotEvery)
		}
		if crt != nil {
			// Bye the workers (each writes a final checkpoint) and reap them.
			crt.close()
			fmt.Printf("cluster: boundary seq %d\n", crt.coord.BoundarySeq())
		}
		digest(values(), alg.dim)
		if *outputFile != "" {
			writeValues(*outputFile, values(), alg.dim)
		}
		if reg != nil {
			fmt.Print(reg.Snapshot().String())
		}
		profStop()
		must(prof.WriteHeap(*memprofile))
	}
}

// stats formats a single-node batch's progress line.
func stats(st engine.BatchStats, err error) (string, error) {
	return fmt.Sprintf("applied=%d trimmed=%d flows=%d units=%d levels=%d msgs=%d relax=%d time=%v",
		st.Applied, st.Trimmed, st.Impacted, st.Units, st.Levels, st.CrossMsgs, st.Relaxations, st.Total), err
}

// loadWorkload loads the initial graph from an edge-tuple file and, when
// streamPath is set, the update stream from a stream file. Without a
// graphPath it generates wl's dataset workload.
func loadWorkload(wl *workloadFlags, graphPath, streamPath string) (gen.Workload, string) {
	if graphPath == "" {
		return wl.build(*wl.batches), *wl.dataset
	}
	initial, numV, err := gio.LoadEdgesFile(graphPath)
	must(err)
	w := gen.Workload{NumV: numV, Initial: initial}
	if streamPath != "" {
		w.Batches, err = gio.LoadStreamFile(streamPath)
		must(err)
	}
	return w, graphPath
}

// lpSeeds loads the seeds file, or spreads 4 x labels seeds over the vertices.
func lpSeeds(file string, labels, numV int) map[graph.VertexID]int {
	if file != "" {
		seeds, err := gio.LoadSeedsFile(file)
		must(err)
		return seeds
	}
	seeds := map[graph.VertexID]int{}
	for i := 0; i < 4*labels; i++ {
		seeds[graph.VertexID((i*2654435761)%numV)] = i % labels
	}
	return seeds
}

// digest prints a short summary of the converged values.
func digest(vals []float64, dim int) {
	n := len(vals) / dim
	reached, sum := 0, 0.0
	for v := 0; v < n; v++ {
		if x := vals[v*dim]; !math.IsInf(x, 0) {
			sum += x
			if x != 0 {
				reached++
			}
		}
	}
	fmt.Printf("result: %d vertices, %d nonzero, component-0 sum %.6g\n", n, reached, sum)
}

// writeValues writes one row per vertex, in vertex order: the id, then its
// dim values.
func writeValues(path string, vals []float64, dim int) {
	f := os.Stdout
	if path != "-" {
		var err error
		f, err = os.Create(path)
		must(err)
		defer f.Close()
	}
	for v := 0; v < len(vals)/dim; v++ {
		fmt.Fprintf(f, "%d", v)
		for _, x := range vals[v*dim : (v+1)*dim] {
			fmt.Fprintf(f, " %g", x)
		}
		fmt.Fprintln(f)
	}
}
