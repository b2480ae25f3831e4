package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/oracle"
)

// runOpts is what the command line fixes for one run.
type runOpts struct {
	seed      uint64
	seconds   float64
	traced    bool
	smoke     bool
	outDir    string
	keepAwake bool // allow the keep-awake spinners on workloads that ask for them
	awakeCPUs int  // CPUs the spinners hold during this run (set by runOne)
}

// instance is one live library engine behind the calls the benchmark makes.
type instance struct {
	process func(graph.Batch) (engine.BatchStats, error)
	values  func() []float64
	// restore rebuilds a working engine from what a stopped one leaves
	// behind (edge list + state snapshot) and returns how long that took:
	// the library's restart path, and the restore half of wal recovery
	// (engine.restore_s).
	restore func() (time.Duration, error)
}

// batchPhases names the phases of one ProcessBatch in the order they run:
// the children of its span and the rows of its budget.
var batchPhases = []string{"graph.apply", "etree.maintain", "dflow.flowindex", "engine.trim", "engine.schedule", "engine.compute"}

func phaseDurations(st engine.BatchStats) []time.Duration {
	return []time.Duration{st.ApplyTime, st.DtreeTime, st.MaintainTime - st.DtreeTime, st.TrimTime, st.ScheduleTime, st.ComputeTime}
}

// repartitionEvery is engine.Config's default flow-rebuild cadence; the
// benchmark runs the default and uses the constant only to label batches.
const repartitionEvery = 8

func newInstance(in inputs, g *graph.Streaming, cfg engine.Config) instance {
	if in.spec.Kind == kindAccumulative {
		alg := algo.NewPageRank(g.NumVertices())
		e := engine.NewAccumulative(g, alg, cfg)
		return instance{process: e.ProcessBatchE, values: e.Values,
			restore: func() (time.Duration, error) {
				edges, st := g.Edges(), e.SnapshotState()
				t := time.Now()
				_, err := engine.NewAccumulativeFromState(graph.FromEdges(g.NumVertices(), edges), alg, cfg, st)
				return time.Since(t), err
			}}
	}
	e := engine.NewSelective(g, in.alg(), cfg)
	return instance{process: e.ProcessBatchE, values: e.Values,
		restore: func() (time.Duration, error) {
			edges := g.Edges()
			vals, parent := e.SnapshotState()
			t := time.Now()
			_, err := engine.NewSelectiveFromState(graph.FromEdges(g.NumVertices(), edges), in.alg(), cfg, vals, parent)
			return time.Since(t), err
		}}
}

// checkValues compares an engine's final values with a from-scratch solve of
// the final graph: bit-exact for SSSP, oracle.AccTolerance for PageRank.
func checkValues(in inputs, g *graph.Streaming, got []float64) error {
	var want []float64
	tol := 0.0
	if in.spec.Kind == kindAccumulative {
		sub := oracle.AccumulativeSubject{Alg: algo.NewPageRank(g.NumVertices())}
		want, tol = sub.Reference(g), sub.Tolerance()
	} else {
		want = oracle.SelectiveSubject{Alg: in.alg()}.Reference(g)
	}
	if i, bad := oracle.FirstDivergence(got, want, tol); bad {
		return fmt.Errorf("oracle: vertex %d = %v, reference %v (tolerance %g)", i, got[i], want[i], tol)
	}
	return nil
}

// repData is what one repetition (fresh engine, whole stream, oracle check)
// measured.
type repData struct {
	setup     time.Duration
	restore   time.Duration
	outer     sample // ProcessBatch wall per batch, ms
	repart    []bool // batch i paid a flow rebuild
	stats     []engine.BatchStats
	updates   int
	attempted int
	failed    int
	mallocs   uint64
	allocKB   float64
	err       error // oracle mismatch or engine error: the run is incorrect
}

// rep runs the stream once from a fresh engine. rec and cfg.Metrics are set
// on traced repetitions only; restore adds a timed restart of the final
// engine (engine.restore_s).
func rep(in inputs, cfg engine.Config, rec *recorder, batchBase int, restore bool) (repData, instance) {
	var d repData
	t := time.Now()
	g := graph.FromEdges(in.w.NumV, in.w.Initial)
	inst := newInstance(in, g, cfg)
	d.setup = time.Since(t)
	rec.add("setup", t, t.Add(d.setup), -1, -1)

	runtime.GC()
	var m0, m1 runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&m0)
	}
	for i, b := range in.w.Batches {
		t0 := time.Now()
		st, err := inst.process(b)
		dur := time.Since(t0)
		d.attempted++
		if err != nil {
			d.failed++
			d.err = fmt.Errorf("batch %d: %w", i, err)
			continue
		}
		d.outer = append(d.outer, ms(dur))
		d.repart = append(d.repart, (i+1)%repartitionEvery == 0)
		d.updates += len(b)
		if rec != nil {
			d.stats = append(d.stats, st)
			id := rec.add("ProcessBatch", t0, t0.Add(dur), -1, batchBase+i)
			rec.addPhases(id, batchBase+i, t0, batchPhases, phaseDurations(st))
		}
	}
	if rec != nil {
		runtime.ReadMemStats(&m1)
		d.mallocs = m1.Mallocs - m0.Mallocs
		d.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	}

	// Correctness, outside the timed region, after every repetition.
	d.attempted++
	if err := checkValues(in, g, inst.values()); err != nil {
		d.failed++
		d.err = err
	}
	if restore {
		var err error
		if d.restore, err = inst.restore(); err != nil {
			d.failed++
			d.err = err
		}
	}
	return d, inst
}

// pooled accumulates repetitions.
type pooled struct {
	outer     sample   // every batch of every repetition, ms
	perRep    []sample // the same, one row per complete repetition
	repart    []bool
	stats     []engine.BatchStats
	setupS    sample
	restoreS  sample
	updates   int // per repetition
	attempted int
	failed    int
	mallocs   uint64
	allocKB   float64
	err       error
	lastInst  instance
}

func (p *pooled) add(d repData, inst instance) {
	p.outer = append(p.outer, d.outer...)
	if d.failed == 0 {
		p.perRep = append(p.perRep, d.outer)
		p.updates = d.updates
	}
	p.repart = append(p.repart, d.repart...)
	p.stats = append(p.stats, d.stats...)
	p.setupS = append(p.setupS, d.setup.Seconds())
	if d.restore > 0 {
		p.restoreS = append(p.restoreS, d.restore.Seconds())
	}
	p.attempted += d.attempted
	p.failed += d.failed
	p.mallocs += d.mallocs
	p.allocKB += d.allocKB
	if d.err != nil && p.err == nil {
		p.err = d.err
	}
	p.lastInst = inst
}

// quietest is the estimator behind every batch time of a library workload:
// per stream position, the lowest latency any repetition saw. Repetitions
// cover the same positions from the same start, so row i of every
// repetition is the same work. The reference box shares its memory system
// with other tenants; their load comes and goes within seconds, and only
// ever adds time, while a regression in the program slows every repetition
// alike. Taking each batch from its least-disturbed execution drops the
// disturbance and keeps the regression, and unlike the best whole
// repetition it needs no repetition to be quiet from end to end.
func (p *pooled) quietest() sample {
	if len(p.perRep) == 0 {
		return nil
	}
	q := append(sample(nil), p.perRep[0]...)
	for _, r := range p.perRep[1:] {
		for i, x := range r {
			if x < q[i] {
				q[i] = x
			}
		}
	}
	return q
}

// runEngine runs a library workload: closed loop, one caller, ProcessBatch
// back to back, whole repetitions until -seconds have passed.
func runEngine(s spec, o runOpts) (*result, error) {
	tGen := time.Now()
	in := generate(s, o.seed, s.Batches)
	genS := time.Since(tGen).Seconds()

	res := newResult(s, o)
	v := values{}
	var all pooled
	// -seconds is the wall-clock budget of the measuring phase, set-up and
	// oracle checks between repetitions included; a repetition that has
	// started always finishes.
	start := time.Now()
	within := func(budget float64) bool { return time.Since(start).Seconds() < budget }
	if !o.traced {
		// Three repetitions at least, whatever -seconds allowed: the set-up
		// median and the quietest profile both need them.
		for len(all.setupS) < 3 || within(o.seconds) {
			all.add(rep(in, engine.Config{}, nil, 0, false))
		}
		endToEndEngine(v, in, &all)
		res.Samples = map[string]sample{"setup_s": all.setupS, "batch_ms": all.quietest()}
		for i, r := range all.perRep {
			res.Samples[fmt.Sprintf("batch_ms_rep%d", i)] = r
		}
	} else {
		// Untraced and traced repetitions alternate, so the two sides of the
		// overhead figure see the same machine; one single-worker repetition
		// then gives the scaling row.
		var plain, w1 pooled
		rec := newRecorder()
		reg := metrics.NewRegistry()
		for len(all.setupS) == 0 || within(o.seconds/2) {
			plain.add(rep(in, engine.Config{}, nil, 0, false))
			all.add(rep(in, engine.Config{Metrics: reg}, rec, len(all.outer), true))
		}
		w1.add(rep(in, engine.Config{Workers: 1}, nil, 0, false))
		if got, want := reg.Counter("batch.count").Value(), int64(len(all.stats)); got != want && all.err == nil {
			all.err = fmt.Errorf("engine registry counted %d batches, benchmark ran %d", got, want)
		}
		bd := engineLayers(v, &all)
		quiet := all.quietest().p50()
		v.set("trace.overhead_pct", 100*(ratio(quiet, plain.quietest().p50())-1), len(all.outer))
		v.set("engine.w1_batch_ms_p50", w1.outer.p50(), len(w1.outer))
		v.set("engine.speedup_w2", ratio(w1.outer.p50(), plain.outer.p50()), len(w1.outer))
		v.set("engine.restore_s", all.restoreS.p50(), len(all.restoreS))
		v.set("gen.generate_s", genS, 1)
		if err := isolatedProbes(v, in, o.outDir); err != nil {
			return nil, err
		}
		res.Checks = separationChecks(s, v, bd)
		bd.Workload, bd.Env = s.Name, res.Env
		printBudget(bd)
		if err := writeJSON(o.outDir+"/budget-"+s.Name+".json", bd); err != nil {
			return nil, err
		}
		if err := rec.write(o.outDir + "/trace-" + s.Name + ".json"); err != nil {
			return nil, err
		}
		for _, p := range []*pooled{&plain, &w1} {
			all.attempted += p.attempted
			all.failed += p.failed
			if p.err != nil && all.err == nil {
				all.err = p.err
			}
		}
	}
	res.tally(all.attempted, all.failed, all.err)
	var err error
	if o.traced {
		res.Metrics, err = v.finish(perLayer, true)
	} else {
		res.Metrics, err = v.finish(endToEnd, false)
	}
	return res, err
}

// endToEndEngine fills the end-to-end metrics of a library workload: batch
// latency is the wall time of ProcessBatch, which returns with the results
// readable. n is the number of timed batches behind each value.
func endToEndEngine(v values, in inputs, p *pooled) {
	q, n := p.quietest(), len(p.outer)
	v.set("setup_s", p.setupS.p50(), len(p.setupS))
	v.set("updates_per_s", ratio(float64(p.updates), q.sum()/1000), n)
	v.set("batch_ms_p50", q.p50(), n)
	v.set("batch_ms_p95", q.p95(), n)
	// The live heap holds the last engine with its graph, and the generated
	// stream.
	v.set("heap_mb", heapMB(), 1)
	runtime.KeepAlive(p.lastInst)
	runtime.KeepAlive(in)
}

// heapMB is the live heap in MB: HeapAlloc after two forced collections (the
// second finishes the first's sweep). HeapInuse, which the issue named, also
// counts the free slots of partly used spans, and that fragmentation follows
// the allocation history of earlier repetitions: 9 % spread over ten seeds on
// sssp-uk-churn against the metric's 10 % bound.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// engineLayers fills the in-situ per-layer metrics from the BatchStats the
// traced repetitions kept, and returns the budget of batch latency.
func engineLayers(v values, p *pooled) budget {
	n := len(p.stats)
	phases := make([]sample, len(batchPhases)) // per phase, ms per batch
	for _, st := range p.stats {
		for k, d := range phaseDurations(st) {
			phases[k] = append(phases[k], ms(d))
		}
	}
	bd := bandBudget(p.outer, batchPhases, phases)
	bd.Metric = "batch_ms"
	for k, phase := range batchPhases { // the metric names are built on the phase names
		v.set(phase+"_ms_p50", phases[k].p50(), n)
		v.set(phase+"_share", bd.share(phase), n)
	}
	comp := phases[len(phases)-1]
	v.set("engine.compute_ms_p95", comp.p95(), n)

	var repart sample
	for i, r := range p.repart {
		if r {
			repart = append(repart, ms(p.stats[i].MaintainTime))
		}
	}
	v.set("dflow.repartition_batch_ms_p50", repart.p50(), len(repart))

	relaxations := 0.0
	for name, count := range map[string]func(engine.BatchStats) float64{
		"dflow.units_per_batch":        func(st engine.BatchStats) float64 { return float64(st.Units) },
		"dflow.levels_per_batch":       func(st engine.BatchStats) float64 { return float64(st.Levels) },
		"engine.trim_roots_per_batch":  func(st engine.BatchStats) float64 { return float64(st.TrimRoots) },
		"engine.trimmed_per_batch":     func(st engine.BatchStats) float64 { return float64(st.Trimmed) },
		"engine.relaxations_per_batch": func(st engine.BatchStats) float64 { return float64(st.Relaxations) },
		"engine.pulls_per_batch":       func(st engine.BatchStats) float64 { return float64(st.Pulls) },
		"engine.cross_msgs_per_batch":  func(st engine.BatchStats) float64 { return float64(st.CrossMsgs) },
		"engine.dispatches_per_batch":  func(st engine.BatchStats) float64 { return float64(st.Dispatches) },
		"engine.steals_per_batch":      func(st engine.BatchStats) float64 { return float64(st.Steals) },
		"engine.parks_per_batch":       func(st engine.BatchStats) float64 { return float64(st.SchedParks) },
	} {
		total := 0.0
		for _, st := range p.stats {
			total += count(st)
		}
		v.set(name, ratio(total, float64(n)), n)
		if name == "engine.relaxations_per_batch" {
			relaxations = total
		}
	}
	v.set("engine.relax_per_us", ratio(relaxations, comp.sum()*1000), n)
	v.set("engine.allocs_per_batch", ratio(float64(p.mallocs), float64(n)), n)
	v.set("engine.alloc_kb_per_batch", ratio(p.allocKB, float64(n)), n)
	v.set("budget.unattributed_share_p50", bd.share("unattributed"), n)
	v.set("budget.unattributed_share_p95", bd.Rows[len(bd.Rows)-1].P95Share, n)
	return bd
}

// separationChecks prints the premises the workload set rests on, so a run
// shows whether each workload still stresses the layers it was chosen for.
func separationChecks(s spec, v values, bd budget) []string {
	get := func(name string) float64 { return v[name].Value }
	verdict := func(ok bool) string {
		if ok {
			return "holds"
		}
		return "DOES NOT HOLD"
	}
	out := []string{fmt.Sprintf("attribution: unattributed share of batch_ms p50 = %.3f (want <= 0.10): %s",
		get("budget.unattributed_share_p50"), verdict(get("budget.unattributed_share_p50") <= 0.10))}
	switch s.Name {
	case "sssp-tt-stream":
		x := get("graph.apply_share") + get("etree.maintain_share") + get("dflow.flowindex_share")
		out = append(out, fmt.Sprintf("separation: graph+etree+dflow share of batch_ms p50 = %.3f (want >= 0.60): %s", x, verdict(x >= 0.60)))
	case "pagerank-uk-stream":
		c, a := get("engine.compute_share"), get("graph.apply_share")
		out = append(out, fmt.Sprintf("separation: engine.compute_share = %.3f (want >= 0.90), graph.apply_share = %.3f (want <= 0.05): %s",
			c, a, verdict(c >= 0.90 && a <= 0.05)))
	case "sssp-uk-churn":
		out = append(out, fmt.Sprintf("separation: engine.trim_share + engine.compute_share = %.3f (want >= 2x the sssp-tt-stream value; compare the two outputs)",
			get("engine.trim_share")+get("engine.compute_share")))
	}
	return out
}
