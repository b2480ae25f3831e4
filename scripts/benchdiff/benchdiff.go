// Command benchdiff validates and compares BENCH_*.json reports written
// by `go run ./cmd/bench -json`.
//
// Usage:
//
//	go run ./scripts/benchdiff -check BENCH_graphfly.json
//	go run ./scripts/benchdiff old.json new.json
//	go run ./scripts/benchdiff -allocgate BENCH_graphfly.json new.json
//
// With -check, the report is parsed and schema-validated (CI's bench-smoke
// gate). With two files, figures are matched by ID and rows by their label
// cells, and every numeric column is printed as old -> new with a relative
// delta; environment mismatches are called out, not hidden. With
// -allocgate, the two-file diff additionally compares mean allocs/batch
// and alloc-bytes/batch (the runtime.ReadMemStats deltas cmd/bench -json
// samples) and exits nonzero when the new report's allocation rate grew
// more than -allocslack over the old one — the CI allocation-regression
// gate for the zero-allocation batch path.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/expr"
)

func main() {
	check := flag.String("check", "", "validate this report and exit")
	allocGate := flag.Bool("allocgate", false, "fail when new.json's mean allocs/batch or bytes/batch grew more than -allocslack over old.json's")
	allocSlack := flag.Float64("allocslack", 0.10, "tolerated relative allocation growth for -allocgate")
	flag.Parse()

	if *check != "" {
		r, err := expr.ReadReport(*check)
		if err == nil {
			err = r.Validate()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid (schema %d, %d figures, %d batches, git %.12s)\n",
			*check, r.SchemaVersion, len(r.Figures), len(r.Batches), r.GitSHA)
		return
	}

	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-check report.json] | benchdiff old.json new.json")
		os.Exit(2)
	}
	oldR, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
	newR, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}

	if oldR.Env != newR.Env {
		fmt.Printf("note: environments differ (%+v vs %+v)\n", oldR.Env, newR.Env)
	}
	if oldR.Scale != newR.Scale {
		fmt.Printf("note: scales differ (%+v vs %+v)\n", oldR.Scale, newR.Scale)
	}

	newFigs := make(map[string]expr.Table, len(newR.Figures))
	for _, f := range newR.Figures {
		newFigs[f.ID] = f
	}
	for _, of := range oldR.Figures {
		nf, ok := newFigs[of.ID]
		if !ok {
			fmt.Printf("== %s: only in %s ==\n", of.ID, flag.Arg(0))
			continue
		}
		delete(newFigs, of.ID)
		diffFigure(of, nf)
	}
	for _, nf := range newR.Figures {
		if _, stillThere := newFigs[nf.ID]; stillThere {
			fmt.Printf("== %s: only in %s ==\n", nf.ID, flag.Arg(1))
		}
	}
	diffBatchLatency(oldR, newR)
	if *allocGate {
		if err := gateAllocs(oldR, newR, *allocSlack); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
	}
}

// meanAllocs averages the sampled allocation deltas across a report's
// batches. Batches without samples (reports from runs that predate the
// alloc fields, or engines driven without -json) are skipped.
func meanAllocs(r expr.Report) (allocs, bytes float64, n int) {
	for _, b := range r.Batches {
		if b.Allocs == 0 && b.AllocBytes == 0 {
			continue
		}
		allocs += float64(b.Allocs)
		bytes += float64(b.AllocBytes)
		n++
	}
	if n > 0 {
		allocs /= float64(n)
		bytes /= float64(n)
	}
	return allocs, bytes, n
}

// gateAllocs enforces the allocation-regression budget: the new report's
// mean allocs/batch and bytes/batch must not exceed the old report's by
// more than slack (relative).
func gateAllocs(oldR, newR expr.Report, slack float64) error {
	oa, ob, on := meanAllocs(oldR)
	na, nb, nn := meanAllocs(newR)
	if on == 0 || nn == 0 {
		return fmt.Errorf("allocgate: no sampled batches (old %d, new %d); run cmd/bench with -json", on, nn)
	}
	fmt.Printf("== alloc gate (slack %.0f%%) ==\n", 100*slack)
	fmt.Printf("  allocs/batch %.0f -> %.0f (%s); bytes/batch %.0f -> %.0f (%s)\n",
		oa, na, relDelta(oa, na), ob, nb, relDelta(ob, nb))
	if na > oa*(1+slack) {
		return fmt.Errorf("allocgate: allocs/batch grew %.0f -> %.0f (> %.0f%% budget)", oa, na, 100*slack)
	}
	if nb > ob*(1+slack) {
		return fmt.Errorf("allocgate: alloc bytes/batch grew %.0f -> %.0f (> %.0f%% budget)", ob, nb, 100*slack)
	}
	fmt.Println("  within budget")
	return nil
}

func load(path string) (expr.Report, error) {
	r, err := expr.ReadReport(path)
	if err != nil {
		return r, err
	}
	return r, r.Validate()
}

// identityCols are numeric columns that configure a row rather than
// measure it; they join the label cells in rowKey so a figure's sweep rows
// (workers in S7, nodes in 16, cores in 17, deletion share in 14a, batch
// size in 14b/15b, flow cap in ablation A1) don't collapse into one key.
var identityCols = map[string]bool{
	"Workers": true, "Nodes": true, "Cores": true,
	"Deletions": true, "BatchSize": true, "FlowCap": true,
}

// rowKey concatenates a row's label cells — the columns with no numeric
// value, plus the numeric identity columns — which identify the row
// (dataset, algorithm, mode, worker count...).
func rowKey(header []string, row []expr.Cell) string {
	var parts []string
	for j, c := range row {
		_, numeric := c.Numeric()
		if !numeric || (j < len(header) && identityCols[header[j]]) {
			parts = append(parts, c.Text)
		}
	}
	return strings.Join(parts, " | ")
}

func diffFigure(of, nf expr.Table) {
	fmt.Printf("== %s: %s ==\n", of.ID, of.Title)
	newRows := make(map[string][]expr.Cell, len(nf.Cells))
	for _, r := range nf.Cells {
		newRows[rowKey(nf.Header, r)] = r
	}
	for _, or := range of.Cells {
		key := rowKey(of.Header, or)
		nr, ok := newRows[key]
		if !ok {
			fmt.Printf("  %-30s  (row missing from new report)\n", key)
			continue
		}
		var cols []string
		for j, oc := range or {
			ov, oNum := oc.Numeric()
			if !oNum || j >= len(nr) {
				continue
			}
			nv, nNum := nr[j].Numeric()
			if !nNum {
				continue
			}
			name := ""
			if j < len(of.Header) {
				name = of.Header[j]
			}
			if identityCols[name] {
				continue // already part of the row key
			}
			cols = append(cols, fmt.Sprintf("%s %s -> %s (%s)",
				name, oc.Text, nr[j].Text, relDelta(ov, nv)))
		}
		if len(cols) > 0 {
			fmt.Printf("  %-30s  %s\n", key, strings.Join(cols, "; "))
		}
	}
}

func relDelta(o, n float64) string {
	if o == 0 {
		if n == 0 {
			return "0%"
		}
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
}

func diffBatchLatency(oldR, newR expr.Report) {
	if oldR.BatchLatency == nil || newR.BatchLatency == nil {
		return
	}
	o, n := *oldR.BatchLatency, *newR.BatchLatency
	fmt.Printf("== batch latency ==\n")
	fmt.Printf("  count %d -> %d; p50 %dns -> %dns (%s); p95 %dns -> %dns (%s); p99 %dns -> %dns (%s)\n",
		o.Count, n.Count,
		o.P50, n.P50, relDelta(float64(o.P50), float64(n.P50)),
		o.P95, n.P95, relDelta(float64(o.P95), float64(n.P95)),
		o.P99, n.P99, relDelta(float64(o.P99), float64(n.P99)))
}
