// Command bench regenerates the paper's tables and figures.
//
// Usage:
//
//	bench                 # every table and figure at quick scale
//	bench -fig 11         # just Fig 11
//	bench -full           # dataset presets (honours GRAPHFLY_SCALE)
//	bench -ablations      # the design-choice ablation studies
//	bench -json -fig 11   # also write BENCH_graphfly.json (typed rows,
//	                      # per-batch phase timings, env + git provenance)
//
// Output is aligned text, one block per table/figure, matching the rows and
// series the paper reports (see EXPERIMENTS.md for paper-vs-measured and
// the BENCH_*.json schema; scripts/benchdiff compares two reports).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/prof"
)

func main() {
	fig := flag.String("fig", "", "table/figure id: table1, 4a, 4b, 11, 12, 13, 14a, 14b, 15a, 15b, 16, 17, s7 (empty = all; comma-separated list runs several)")
	full := flag.Bool("full", false, "use the dataset presets instead of the quick scale")
	ablations := flag.Bool("ablations", false, "run the ablation studies instead of the paper figures")
	edgecap := flag.Int("edgecap", 0, "override the per-dataset edge cap")
	batch := flag.Int("batch", 0, "override batch size")
	batches := flag.Int("batches", 0, "override number of batches")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	hubThreshold := flag.Int("hub-threshold", 0, "override the hub-index build threshold (0 = per-figure default; drop stays threshold/4)")
	hubReplicas := flag.Int("hub-replicas", 0, "replicas per hub under replication (0 = one per worker)")
	jsonOut := flag.Bool("json", false, "write the machine-readable report next to the text output")
	out := flag.String("out", "BENCH_graphfly.json", "report path for -json")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here")
	memprofile := flag.String("memprofile", "", "write a heap profile here at exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace here")
	flag.Parse()

	stop, err := prof.Start(*cpuprofile, *tracePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	defer stop()

	sc := expr.Quick()
	if *full {
		sc = expr.Full()
	}
	if *edgecap > 0 {
		sc.EdgeCap = *edgecap
	}
	if *batch > 0 {
		sc.BatchSize = *batch
	}
	if *batches > 0 {
		sc.Batches = *batches
	}
	sc.Workers = *workers
	sc.HubThreshold = *hubThreshold
	sc.HubReplicas = *hubReplicas
	if *jsonOut {
		sc.Rec = metrics.NewBatchRecorder(metrics.NewRegistry())
	}

	var tables []expr.Table
	switch {
	case *ablations:
		tables = expr.Ablations(sc)
	case *fig == "":
		tables = expr.All(sc)
	default:
		for _, one := range strings.Split(*fig, ",") {
			id := strings.ToLower(strings.TrimPrefix(strings.TrimSpace(one), "fig"))
			run, ok := expr.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: unknown figure %q\n", one)
				os.Exit(2)
			}
			tables = append(tables, run(sc))
		}
	}
	for _, t := range tables {
		fmt.Println(t)
	}

	if *jsonOut {
		r := expr.BuildReport(sc, tables, gitSHA(), time.Now().UTC().Format(time.RFC3339))
		if err := r.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: report failed validation: %v\n", err)
			os.Exit(1)
		}
		if err := expr.WriteReport(*out, r); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %s (%d figures, %d batches)\n",
			*out, len(r.Figures), len(r.Batches))
	}
	stop()
	if err := prof.WriteHeap(*memprofile); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// gitSHA best-effort resolves the working tree's commit for provenance;
// reports stay valid without it (e.g. when run from a tarball).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
