package expr

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/algo"
	"repro/internal/cachesim"
	"repro/internal/dflow"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/etree"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// Table1 reproduces Table I: the dataset inventory (synthetic stand-ins at
// the configured scale, with the paper's original sizes for reference).
func Table1(sc Scale) Table {
	paper := map[string]string{
		"FT": "2.5B / 68.3M", "TT": "2.0B / 52.6M", "TW": "1.5B / 41.7M",
		"UK": "1.0B / 39.5M", "LJ": "69M / 4.8M",
	}
	t := Table{
		ID:     "Table I",
		Title:  "Real-world graph datasets (synthetic stand-ins)",
		Header: []string{"Graph", "#Edges", "#Vertices", "Generator", "Paper #E/#V"},
	}
	for _, code := range gen.DatasetCodes() {
		cfg := dataset(code, sc)
		edges := gen.Generate(cfg)
		t.AddRow(code, strconv.Itoa(len(edges)), strconv.Itoa(cfg.NumV),
			cfg.Kind.String(), paper[code])
	}
	return t
}

// Fig4a reproduces Fig 4(a): the share of accesses that are cross-phase
// redundant in two-phase engines (KickStarter on SSSP, GraphBolt on
// PageRank). The paper reports >68 % of running time on average.
func Fig4a(sc Scale) Table {
	t := Table{
		ID:     "Fig 4a",
		Title:  "Redundant access share in two-phase engines (deleting batches)",
		Header: []string{"Graph", "KickStarter/SSSP", "GraphBolt/PageRank"},
	}
	for _, code := range gen.DatasetCodes() {
		w := workload(code, sc, 0.3, 0x4A)
		ksSim := cachesim.NewSim(cachesim.DefaultConfig())
		ks := kickstarterEngine(w, algo.SSSP{Src: 0}, engine.Config{Workers: sc.Workers, Probe: ksSim})
		ksSim.Reset()
		runBatches(ks, w)
		ksStats := ksSim.Drain()

		gbSim := cachesim.NewSim(cachesim.DefaultConfig())
		gb := graphboltEngine(w, algo.NewPageRank(w.NumV), engine.Config{Workers: sc.Workers, Probe: gbSim})
		gbSim.Reset()
		runBatches(gb, w)
		gbStats := gbSim.Drain()

		t.AddRow(code, Pct(ksStats.RedundancyRatio()), Pct(gbStats.RedundancyRatio()))
	}
	return t
}

// Fig4b reproduces Fig 4(b): the number of dependency-flows per graph
// (1,496 to 211,348 in the paper, scaling with graph size). "Natural"
// flows are the D-trees of the forward triangle — the intrinsic count the
// paper reports; "storage" flows are what the runtime packs them into
// under the size cap (small trees share a flow, oversized ones split).
func Fig4b(sc Scale) Table {
	t := Table{
		ID:     "Fig 4b",
		Title:  "Dependency-flows per graph",
		Header: []string{"Graph", "NaturalFlows", "StorageFlows", "HyperVertices", "MaxHyper"},
	}
	for _, code := range gen.DatasetCodes() {
		cfg := dataset(code, sc)
		g := graph.FromEdges(cfg.NumV, gen.Generate(cfg))
		f := etree.NewForest(g, etree.Forward)
		p := dflow.NewPartition(f, dflow.DefaultCap)
		st := f.ComputeStats()
		t.AddRow(code, strconv.Itoa(st.Trees), strconv.Itoa(p.NumFlows()),
			strconv.Itoa(st.HyperVertices), strconv.Itoa(st.MaxHyperSize))
	}
	return t
}

// Fig11 reproduces Fig 11: incremental execution time for KickStarter,
// GraphBolt, and GraphFly across six algorithms and five graphs. The paper
// reports GraphFly 5.81x over KickStarter and 1.78x over GraphBolt on
// average.
func Fig11(sc Scale) Table {
	t := Table{
		ID:     "Fig 11",
		Title:  "Execution time (ms) with edge mutations: baseline vs GraphFly",
		Header: []string{"Graph", "Algorithm", "Baseline", "Baseline ms", "GraphFly ms", "Speedup"},
	}
	fig11Cases(sc, func(c fig11Case) {
		base, _ := runBatches(c.Baseline(), c.W)
		gf, _ := runBatches(c.GraphFly(), c.W)
		t.AddRow(c.Dataset, c.Alg, c.BaselineName, Dur(base), Dur(gf), Ratio(gf, base))
	})
	return t
}

// fig11Case is one Fig 11 cell: a dataset's workload, an algorithm, and
// constructors for its baseline and GraphFly engines. The engines are built
// on call, so a caller measures one before the next exists.
type fig11Case struct {
	Dataset, Alg, BaselineName string
	W                          gen.Workload
	Baseline, GraphFly         func() incrementalProcessor
}

// fig11Cases visits Fig 11's engine set in table order: for each dataset,
// KickStarter and GraphFly on the four selective algorithms, then GraphBolt
// and GraphFly on the two accumulative ones. TestFig11AllocBudget measures
// the same set.
func fig11Cases(sc Scale, visit func(fig11Case)) {
	cfg := engine.Config{Workers: sc.Workers}
	for _, code := range gen.DatasetCodes() {
		for _, sa := range SelectiveAlgs() {
			w := workload(code, sc, 0.1, 0x11)
			a := sa.Make(w)
			visit(fig11Case{code, sa.Name, "KickStarter", w,
				func() incrementalProcessor { return kickstarterEngine(w, a, cfg) },
				func() incrementalProcessor { return graphflySelective(w, a, cfg) }})
		}
		for _, aa := range AccumulativeAlgs() {
			w := workload(code, sc, 0.1, 0x11)
			a := aa.Make(w)
			visit(fig11Case{code, aa.Name, "GraphBolt", w,
				func() incrementalProcessor { return graphboltEngine(w, a, cfg) },
				func() incrementalProcessor { return graphflyAccumulative(w, a, cfg) }})
		}
	}
}

// Fig12 reproduces Fig 12: normalized memory accesses (simulated cache
// misses). The paper reports GraphFly cutting memory accesses by 80.19 %
// vs KickStarter (SSSP) and 38.02 % vs GraphBolt (PageRank).
func Fig12(sc Scale) Table {
	t := Table{
		ID:     "Fig 12",
		Title:  "Normalized memory accesses (cache misses), GraphFly vs baselines",
		Header: []string{"Graph", "GF/KS (SSSP)", "reduction", "GF/GB (PageRank)", "reduction"},
	}
	for _, code := range gen.DatasetCodes() {
		w := workload(code, sc, 0.3, 0x12)

		missesOf := func(build func(p cachesim.Probe) incrementalProcessor) uint64 {
			sim := cachesim.NewSim(cachesim.DefaultConfig())
			e := build(sim)
			sim.Reset() // measure incremental phase only
			runBatches(e, w)
			return sim.Drain().Misses
		}
		cfgW := func(p cachesim.Probe) engine.Config {
			return engine.Config{Workers: sc.Workers, Probe: p}
		}
		ks := missesOf(func(p cachesim.Probe) incrementalProcessor {
			return kickstarterEngine(w, algo.SSSP{Src: 0}, cfgW(p))
		})
		gfSel := missesOf(func(p cachesim.Probe) incrementalProcessor {
			return graphflySelective(w, algo.SSSP{Src: 0}, cfgW(p))
		})
		gb := missesOf(func(p cachesim.Probe) incrementalProcessor {
			return graphboltEngine(w, algo.NewPageRank(w.NumV), cfgW(p))
		})
		gfAcc := missesOf(func(p cachesim.Probe) incrementalProcessor {
			return graphflyAccumulative(w, algo.NewPageRank(w.NumV), cfgW(p))
		})
		norm := func(gf, base uint64) (string, string) {
			if base == 0 {
				return NA(), NA()
			}
			r := float64(gf) / float64(base)
			return Float(r, 3), Pct(1 - r)
		}
		r1, d1 := norm(gfSel, ks)
		r2, d2 := norm(gfAcc, gb)
		t.AddRow(code, r1, d1, r2, d2)
	}
	return t
}

// Fig13 reproduces Fig 13: GraphFly with vs without the specialized
// storage format (paper: 1.81x on SSSP, 1.29x on PageRank). At laptop
// scale the whole value array fits in L2, so the wall-clock columns are
// expected to be flat; the simulated-cache miss columns expose the
// locality mechanism the paper measures at billion-edge scale
// (see EXPERIMENTS.md).
func Fig13(sc Scale) Table {
	t := Table{
		ID:    "Fig 13",
		Title: "Specialized storage format ablation (w/ vs w/o SSF)",
		Header: []string{"Graph",
			"SSSP w/ ms", "SSSP w/o ms", "speedup", "SSSP miss ratio",
			"PR w/ ms", "PR w/o ms", "speedup", "PR miss ratio"},
	}
	// A cache sized well below the working set, as in the full-scale runs.
	simCfg := cachesim.Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4}
	missRatio := func(build func(p cachesim.Probe, scattered bool) incrementalProcessor, w gen.Workload) string {
		count := func(scattered bool) uint64 {
			sim := cachesim.NewSim(simCfg)
			e := build(sim, scattered)
			sim.Reset()
			runBatches(e, w)
			return sim.Drain().Misses
		}
		with, without := count(false), count(true)
		if without == 0 {
			return NA()
		}
		return Float(float64(with)/float64(without), 2)
	}
	for _, code := range gen.DatasetCodes() {
		w := workload(code, sc, 0.3, 0x13)
		withCfg := engine.Config{Workers: sc.Workers}
		woCfg := engine.Config{Workers: sc.Workers, ScatteredStorage: true}
		sWith, _ := runBatches(graphflySelective(w, algo.SSSP{Src: 0}, withCfg), w)
		sWo, _ := runBatches(graphflySelective(w, algo.SSSP{Src: 0}, woCfg), w)
		pWith, _ := runBatches(graphflyAccumulative(w, algo.NewPageRank(w.NumV), withCfg), w)
		pWo, _ := runBatches(graphflyAccumulative(w, algo.NewPageRank(w.NumV), woCfg), w)
		sMiss := missRatio(func(p cachesim.Probe, scattered bool) incrementalProcessor {
			return graphflySelective(w, algo.SSSP{Src: 0},
				engine.Config{Workers: sc.Workers, Probe: p, ScatteredStorage: scattered})
		}, w)
		pMiss := missRatio(func(p cachesim.Probe, scattered bool) incrementalProcessor {
			return graphflyAccumulative(w, algo.NewPageRank(w.NumV),
				engine.Config{Workers: sc.Workers, Probe: p, ScatteredStorage: scattered})
		}, w)
		t.AddRow(code, Dur(sWith), Dur(sWo), Ratio(sWith, sWo), sMiss,
			Dur(pWith), Dur(pWo), Ratio(pWith, pWo), pMiss)
	}
	return t
}

// Fig14a reproduces Fig 14(a): execution time under different deletion
// percentages (10-50 %) for SSSP on UK; the paper observes stable times.
func Fig14a(sc Scale) Table {
	t := Table{
		ID:     "Fig 14a",
		Title:  "SSSP on UK: execution time vs deletion percentage",
		Header: []string{"Deletions", "GraphFly ms/batch", "KickStarter ms/batch"},
	}
	s14 := sc
	if s14.Batches >= 3 && s14.Batches < 8 {
		s14.Batches = 8 // average over more batches to stabilize the curve
	}
	for _, del := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		w := workload("UK", s14, del, 0x14A)
		cfg := engine.Config{Workers: sc.Workers}
		gf, _ := runBatches(graphflySelective(w, algo.SSSP{Src: 0}, cfg), w)
		ks, _ := runBatches(kickstarterEngine(w, algo.SSSP{Src: 0}, cfg), w)
		n := time.Duration(len(w.Batches))
		t.AddRow(Pct(del), Dur(gf/n), Dur(ks/n))
	}
	return t
}

// Fig14b reproduces Fig 14(b): execution time vs batch size (1M-10M in the
// paper, scaled multiples here) for SSSP on UK with 30 % deletions. The
// per-update column is nanoseconds per applied update (earlier revisions
// mislabeled the same number "ms/update x1e6").
func Fig14b(sc Scale) Table {
	t := Table{
		ID:     "Fig 14b",
		Title:  "SSSP on UK: execution time vs batch size (30% deletions)",
		Header: []string{"BatchSize", "GraphFly ms", "ns/update"},
	}
	for _, mult := range []int{1, 2, 5, 10} {
		s := sc
		s.BatchSize = sc.BatchSize * mult
		if s.Batches >= 3 && s.Batches < 6 {
			s.Batches = 6
		}
		w := workload("UK", s, 0.3, 0x14B)
		gf, _ := runBatches(graphflySelective(w, algo.SSSP{Src: 0}, engine.Config{Workers: sc.Workers}), w)
		updates := 0
		for _, b := range w.Batches {
			updates += len(b)
		}
		perUpdate := NA()
		if updates > 0 {
			perUpdate = Float(float64(gf.Nanoseconds())/float64(updates), 3)
		}
		t.AddRow(strconv.Itoa(s.BatchSize), Dur(gf), perUpdate)
	}
	return t
}

// Fig15a reproduces Fig 15(a): one-time D-tree generation cost vs the
// total incremental computation time across batches (0.47 % in the paper).
func Fig15a(sc Scale) Table {
	t := Table{
		ID:     "Fig 15a",
		Title:  "D-tree generation vs total incremental computation",
		Header: []string{"Graph", "Generation ms", "Incremental ms", "Generation share"},
	}
	for _, code := range gen.DatasetCodes() {
		w := workload(code, sc, 0.1, 0x15A)
		g := buildGraph(w, false)
		t0 := time.Now()
		f := etree.NewForest(g, etree.Forward)
		fb := etree.NewForest(g, etree.Backward)
		dflow.NewPartition(f, dflow.DefaultCap)
		genTime := time.Since(t0)
		_ = fb
		inc, _ := runBatches(graphflyAccumulative(w, algo.NewPageRank(w.NumV), engine.Config{Workers: sc.Workers}), w)
		share := NA()
		if inc > 0 {
			share = Pct(float64(genTime) / float64(inc+genTime))
		}
		t.AddRow(code, Dur(genTime), Dur(inc), share)
	}
	return t
}

// Fig15b reproduces Fig 15(b): D-tree incremental maintenance vs graph
// update time across batch sizes; maintenance should stay below update.
func Fig15b(sc Scale) Table {
	t := Table{
		ID:     "Fig 15b",
		Title:  "D-tree incremental maintenance vs graph update, per batch size",
		Header: []string{"BatchSize", "GraphUpdate ms", "D-treeMaintain ms", "AllIndexes ms"},
	}
	for _, mult := range []int{1, 2, 5, 10} {
		s := sc
		s.BatchSize = sc.BatchSize * mult
		w := workload("UK", s, 0.1, 0x15B)
		e := graphflyAccumulative(w, algo.NewPageRank(w.NumV), engine.Config{Workers: sc.Workers})
		var apply, dtree, maintain time.Duration
		_, stats := runBatches(e, w)
		for _, st := range stats {
			apply += st.ApplyTime
			dtree += st.DtreeTime
			maintain += st.MaintainTime
		}
		t.AddRow(strconv.Itoa(s.BatchSize), Dur(apply), Dur(dtree), Dur(maintain))
	}
	return t
}

// Fig16 reproduces Fig 16 (distributed scaling on FT) on a loopback
// cluster: a dist.Coordinator and 1, 2 and 4 dist.RunWorker goroutines,
// each with its own wal directory, run SSSP over TCP on 127.0.0.1 (DESIGN.md
// §2 substitution). The workers share the host's cores, so the columns show
// how routing grows with the worker count, not a speed-up. A node count
// whose converged values differ from algo.SolveSelective on the final graph
// prints an error cell instead of a time. PageRank is not run: the socket
// runtime carries selective algorithms only (dist/alg.go).
func Fig16(sc Scale) Table {
	t := Table{
		ID:     "Fig 16",
		Title:  "Loopback cluster on FT, SSSP (measured, in-process workers over TCP)",
		Header: []string{"Nodes", "SSSP ms/batch", "routed records/batch", "routed bytes/batch"},
	}
	w := workload("FT", sc, 0.1, 0x16)
	for _, n := range []int{1, 2, 4} {
		row, err := loopbackCluster(w, n)
		if err != nil {
			row = []string{"error: " + err.Error(), NA(), NA()}
		}
		t.AddRow(append([]string{strconv.Itoa(n)}, row...)...)
	}
	return t
}

// loopbackCluster runs w's batches through a coordinator and n in-process
// workers and returns the ms/batch, routed-records/batch and
// routed-bytes/batch cells, after checking the converged values against the
// single-machine solver.
func loopbackCluster(w gen.Workload, n int) (cells []string, err error) {
	alg := algo.SSSP{Src: 0}
	reg := metrics.NewRegistry()
	// A finer flow cap gives the workers several flows each (flows are the
	// distribution granularity, §VI Data Management). A worker writes its
	// seq-s checkpoint when the BatchStart of s+1 arrives; with CkptEvery 2
	// the seq-2 write lands in the timed window (seq 3 at quick scale), so
	// the figure prices the workers' durability too.
	coord, err := dist.NewCoordinator(buildGraph(w, false), alg,
		dist.CoordConfig{Addr: "127.0.0.1:0", FlowCap: 64, CkptEvery: 2, Metrics: reg})
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "graphfly-fig16-")
	if err != nil {
		coord.Close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	var workers sync.WaitGroup
	werrs := make(chan error, n) // one slot per worker: a send never blocks
	defer func() {
		coord.Close() // byes the workers; cancel stops any the bye missed
		cancel()
		workers.Wait()
		os.RemoveAll(dir)
		if err != nil && len(werrs) > 0 {
			err = <-werrs // the cause, not the timeout it led to
		}
	}()
	for i := 0; i < n; i++ {
		workers.Add(1)
		go func(id int) {
			defer workers.Done()
			err := dist.RunWorker(ctx, dist.WorkerConfig{
				Addr: coord.Addr(), Dir: filepath.Join(dir, fmt.Sprintf("worker-%d", id)), ID: id,
			})
			if err != nil {
				werrs <- fmt.Errorf("worker %d: %w", id, err)
				cancel() // fail the run now, not at the timeout
			}
		}(i)
	}
	if err := coord.WaitForWorkers(ctx, n); err != nil {
		return nil, err
	}
	// An untimed empty batch returns once every worker has loaded its
	// welcome, so that load is not billed to the first timed batch.
	if err := coord.ProcessBatch(ctx, nil); err != nil {
		return nil, err
	}

	t0 := time.Now()
	for _, b := range w.Batches {
		if err := coord.ProcessBatch(ctx, b); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(t0)

	ref := buildGraph(w, false)
	for _, b := range w.Batches {
		ref.ApplyBatch(b)
	}
	want, _ := algo.SolveSelective(ref, alg)
	got := coord.Values()
	for v := range want {
		if got[v] != want[v] {
			return nil, fmt.Errorf("vertex %d = %v, want %v", v, got[v], want[v])
		}
	}
	nb := float64(len(w.Batches))
	return []string{
		Dur(elapsed / time.Duration(len(w.Batches))),
		Float(float64(reg.Counter("dist.routed_records").Value())/nb, 1),
		Float(float64(reg.Counter("dist.routed_bytes").Value())/nb, 0),
	}, nil
}

// Fig17 reproduces Fig 17: single-machine core scaling for SSSP and
// PageRank on FT, as wall-clock time over the engine's worker count. A
// worker count above GOMAXPROCS would time the Go scheduler's
// oversubscription, not the engine, so its row prints "—".
func Fig17(sc Scale) Table {
	t := Table{
		ID:     "Fig 17",
		Title:  "Core scaling on FT (GraphFly, wall-clock ms)",
		Header: []string{"Cores", "SSSP ms", "PR ms"},
	}
	w := workload("FT", sc, 0.1, 0x17)
	for _, workers := range []int{1, 2, 4, 8, 16, 28} {
		if workers > runtime.GOMAXPROCS(0) {
			t.AddRow(strconv.Itoa(workers), "—", "—")
			continue
		}
		cfg := engine.Config{Workers: workers, FlowCap: 256}
		s, _ := runBatches(graphflySelective(w, algo.SSSP{Src: 0}, cfg), w)
		p, _ := runBatches(graphflyAccumulative(w, algo.NewPageRank(w.NumV), cfg), w)
		t.AddRow(strconv.Itoa(workers), Dur(s), Dur(p))
	}
	return t
}

// All runs every table and figure at the given scale, in paper order.
func All(sc Scale) []Table {
	return []Table{
		Table1(sc), Fig4a(sc), Fig4b(sc), Fig11(sc), Fig12(sc), Fig13(sc),
		Fig14a(sc), Fig14b(sc), Fig15a(sc), Fig15b(sc), Fig16(sc), Fig17(sc),
	}
}

// ByID returns the runner for a table/figure identifier (e.g. "11", "4a",
// "table1", "14b"), or false when unknown.
func ByID(id string) (func(Scale) Table, bool) {
	switch id {
	case "table1", "t1", "1":
		return Table1, true
	case "4a":
		return Fig4a, true
	case "4b":
		return Fig4b, true
	case "11":
		return Fig11, true
	case "12":
		return Fig12, true
	case "13":
		return Fig13, true
	case "14a":
		return Fig14a, true
	case "14b":
		return Fig14b, true
	case "15a":
		return Fig15a, true
	case "15b":
		return Fig15b, true
	case "16":
		return Fig16, true
	case "17":
		return Fig17, true
	}
	return nil, false
}
