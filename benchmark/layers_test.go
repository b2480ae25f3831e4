package main

import (
	"flag"
	"sync"
	"testing"

	"repro/internal/engine"
)

// One Benchmark<Layer> per row group of the per-layer table, looping the
// same probes the traced run passes over once, so a layer can be optimised
// in isolation:
//
//	cd benchmark && go test -run '^$' -bench Etree -benchtime 200x -full
//
// Without -full the workloads run at smoke scale (quick, no claim).
var full = flag.Bool("full", false, "run the layer benchmarks on the full-size workload graphs")

var (
	benchMu     sync.Mutex
	benchInputs = map[string]inputs{}
)

func inputsFor(b *testing.B, workload string) inputs {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if in, ok := benchInputs[workload]; ok {
		return in
	}
	s, ok := findWorkload(workload)
	if !ok {
		b.Fatalf("unknown workload %s", workload)
	}
	if !*full {
		s = s.smoke()
	}
	in := generate(s, 1, s.Batches)
	benchInputs[workload] = in
	return in
}

// loop runs p's steps b.N times, wrapping around its batches; reset and prep
// stay outside the timer.
func loop(b *testing.B, p probe) {
	b.Helper()
	if p.step == nil {
		b.Skip("probe does not exist for this engine family")
	}
	if p.close != nil {
		defer p.close()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % p.n
		if (k == 0 && p.reset != nil) || p.prep != nil {
			b.StopTimer()
			if k == 0 && p.reset != nil {
				if p.close != nil && i > 0 {
					p.close()
				}
				if err := p.reset(); err != nil {
					b.Fatal(err)
				}
			}
			if p.prep != nil {
				p.prep(k)
			}
			b.StartTimer()
		}
		p.step(k)
	}
}

func BenchmarkGraph(b *testing.B) {
	for _, w := range []string{"sssp-tt-stream", "sssp-uk-churn"} {
		b.Run("ApplyBatchParallel/"+w, func(b *testing.B) { loop(b, applyProbe(inputsFor(b, w))) })
	}
}

func BenchmarkEtree(b *testing.B) {
	in := inputsFor(b, "sssp-uk-churn")
	b.Run("ForestAddEdge", func(b *testing.B) { loop(b, forestProbe(in, false)) })
	b.Run("ForestDeleteEdge", func(b *testing.B) { loop(b, forestProbe(in, true)) })
	b.Run("NewForest", func(b *testing.B) { loop(b, forestBuildProbe(in)) })
	b.Run("KeyForestBulkLoad", func(b *testing.B) { loop(b, bulkLoadProbe(solve(in))) })
}

func BenchmarkDflow(b *testing.B) {
	in := inputsFor(b, "sssp-tt-stream")
	s := solve(in)
	part := newPartition(in.spec.Kind, s)
	b.Run("NewPartition", func(b *testing.B) { loop(b, partitionProbe(in.spec.Kind, s)) })
	b.Run("NewFlowGraph", func(b *testing.B) { loop(b, flowGraphProbe(s, part)) })
	b.Run("Schedule", func(b *testing.B) { loop(b, scheduleProbe(in, s, part)) })
}

// processBatch loops whole batches through an engine and reports one
// BatchStats quantity (unit names it) alongside the batch time.
func processBatch(b *testing.B, workload string, cfg engine.Config, unit string, pick func(engine.BatchStats) float64) {
	var last engine.BatchStats
	var total float64
	p := batchProbe(inputsFor(b, workload), cfg, &last)
	step := p.step
	p.step = func(i int) { step(i); total += pick(last) }
	loop(b, p)
	b.ReportMetric(total/float64(b.N), unit)
}

func BenchmarkEngineTrim(b *testing.B) {
	processBatch(b, "sssp-uk-churn", engine.Config{}, "trim-ms/op", func(st engine.BatchStats) float64 { return ms(st.TrimTime) })
}

func BenchmarkEngineCompute(b *testing.B) {
	processBatch(b, "pagerank-uk-stream", engine.Config{}, "compute-ms/op", func(st engine.BatchStats) float64 { return ms(st.ComputeTime) })
}

func BenchmarkEngineSched(b *testing.B) {
	for _, w := range []int{1, 2} {
		b.Run(map[int]string{1: "Workers1", 2: "Workers2"}[w], func(b *testing.B) {
			processBatch(b, "pagerank-uk-stream", engine.Config{Workers: w}, "dispatches/op",
				func(st engine.BatchStats) float64 { return float64(st.Dispatches) })
		})
	}
}

func BenchmarkEngineState(b *testing.B) {
	sp := newStateProbes(inputsFor(b, "sssp-tt-stream"), b.TempDir())
	b.Run("Constructor", func(b *testing.B) { loop(b, sp.init) })
	b.Run("StateSnapshot", func(b *testing.B) { loop(b, sp.snapshot) })
	b.Run("TopK", func(b *testing.B) { loop(b, sp.topk) })
}

func BenchmarkWal(b *testing.B) {
	in := inputsFor(b, "serve-sssp-tt")
	enc, dec, _ := codecProbes(in)
	b.Run("EncodeBatch", func(b *testing.B) { loop(b, enc) })
	b.Run("DecodeBatch", func(b *testing.B) { loop(b, dec) })
	b.Run("LogAppend", func(b *testing.B) { loop(b, logProbe(in, b.TempDir(), false)) })
	b.Run("LogSync", func(b *testing.B) { loop(b, logProbe(in, b.TempDir(), true)) })
	b.Run("WriteSnapshot", func(b *testing.B) { loop(b, newStateProbes(in, b.TempDir()).walSnapshot) })
}

func BenchmarkServe(b *testing.B) {
	in := inputsFor(b, "serve-sssp-tt")
	h, _, err := bringUp(in, b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer h.tearDown()
	b.Run("StatRoundTrip", func(b *testing.B) { loop(b, statProbe(h)) })
}
