// Command bench regenerates the paper's tables and figures.
//
// Usage:
//
//	bench                 # every table and figure at quick scale
//	bench -fig 11         # just Fig 11
//	bench -full           # dataset presets (honours GRAPHFLY_SCALE)
//	bench -ablations      # the design-choice ablation studies
//
// Output is aligned text, one block per table/figure, matching the rows and
// series the paper reports; EXPERIMENTS.md records the paper-vs-measured
// outcomes with their dates. Performance is gated by the repository
// benchmark (benchmark/, BENCHMARK.json) and allocations per batch by
// internal/expr's TestFig11AllocBudget.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/expr"
	"repro/internal/prof"
)

func main() {
	fig := flag.String("fig", "", "table/figure id: table1, 4a, 4b, 11, 12, 13, 14a, 14b, 15a, 15b, 16, 17 (empty = all; comma-separated list runs several)")
	full := flag.Bool("full", false, "use the dataset presets instead of the quick scale")
	ablations := flag.Bool("ablations", false, "run the ablation studies instead of the paper figures")
	edgecap := flag.Int("edgecap", 0, "override the per-dataset edge cap")
	batch := flag.Int("batch", 0, "override batch size")
	batches := flag.Int("batches", 0, "override number of batches")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here")
	memprofile := flag.String("memprofile", "", "write a heap profile here at exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace here")
	flag.Parse()

	// Every input check runs before profiling starts, so a rejected
	// command line never leaves a truncated profile behind.
	switch {
	case *edgecap < 0:
		usagef("-edgecap must be >= 0")
	case *batch < 0:
		usagef("-batch must be >= 0")
	case *batches < 0:
		usagef("-batches must be >= 0")
	case *workers < 0:
		usagef("-workers must be >= 0")
	case flag.NArg() > 0:
		usagef("unexpected argument %q", flag.Arg(0))
	}
	var runs []func(expr.Scale) expr.Table
	if *fig != "" {
		for _, one := range strings.Split(*fig, ",") {
			id := strings.ToLower(strings.TrimPrefix(strings.TrimSpace(one), "fig"))
			run, ok := expr.ByID(id)
			if !ok {
				usagef("unknown figure %q", one)
			}
			runs = append(runs, run)
		}
	}

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

	var tables []expr.Table
	switch {
	case *ablations:
		tables = expr.Ablations(sc)
	case len(runs) == 0:
		tables = expr.All(sc)
	default:
		for _, run := range runs {
			tables = append(tables, run(sc))
		}
	}
	for _, t := range tables {
		fmt.Println(t)
	}

	stop()
	if err := prof.WriteHeap(*memprofile); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// usagef rejects bad command-line input: the message, the usage, exit 2.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
