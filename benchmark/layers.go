package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/algo"
	"repro/internal/dflow"
	"repro/internal/engine"
	"repro/internal/etree"
	"repro/internal/graph"
	"repro/internal/wal"
)

// probe times one exported function of one layer in isolation, on a
// workload's own inputs. The traced run makes one pass over each probe
// (isolatedProbes); layers_test.go loops the same steps under b.N, so a
// layer can be optimised alone with `go test -bench`.
type probe struct {
	n     int             // steps in one pass
	reset func() error    // (re)build the probe's state, untimed; may be nil
	prep  func(i int)     // untimed work before step i; may be nil
	step  func(i int)     // the timed call
	units func(i int) int // work items step i covers (updates); nil = 1
	close func()          // release files; may be nil
}

// pass runs every step once and returns nanoseconds per step and per unit.
func (p probe) pass() (perStep, perUnit sample, err error) {
	if p.close != nil {
		defer p.close()
	}
	if p.reset != nil {
		if err := p.reset(); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < p.n; i++ {
		if p.prep != nil {
			p.prep(i)
		}
		t := time.Now()
		p.step(i)
		ns := float64(time.Since(t))
		perStep = append(perStep, ns)
		if p.units != nil {
			if u := p.units(i); u > 0 {
				perUnit = append(perUnit, ns/float64(u))
			}
		}
	}
	return perStep, perUnit, nil
}

func freshGraph(in inputs) *graph.Streaming { return graph.FromEdges(in.w.NumV, in.w.Initial) }

// applyProbe: graph.ApplyBatchParallel on a private graph, same batches.
func applyProbe(in inputs) probe {
	var g *graph.Streaming
	return probe{n: len(in.w.Batches),
		reset: func() error { g = freshGraph(in); return nil },
		step:  func(i int) { g.ApplyBatchParallel(in.w.Batches[i], runtime.GOMAXPROCS(0)) },
		units: func(i int) int { return len(in.w.Batches[i]) }}
}

// forestProbe: etree.Forest.AddEdge (del=false) or DeleteEdge (del=true) over
// the updates of each batch that took effect; the other half of the batch is
// folded in untimed so the forest tracks the graph.
func forestProbe(in inputs, del bool) probe {
	var g *graph.Streaming
	var f *etree.Forest
	var mine graph.Batch
	feed := func(u graph.Update) {
		if u.Del {
			f.DeleteEdge(g, u.Src, u.Dst)
		} else {
			f.AddEdge(u.Src, u.Dst)
		}
	}
	return probe{n: len(in.w.Batches),
		reset: func() error { g = freshGraph(in); f = etree.NewForest(g, etree.Forward); return nil },
		prep: func(i int) {
			mine = mine[:0]
			for _, u := range g.ApplyBatch(in.w.Batches[i]) {
				if u.Del == del {
					mine = append(mine, u)
				} else {
					feed(u)
				}
			}
		},
		step: func(int) {
			for _, u := range mine {
				feed(u)
			}
		},
		units: func(int) int { return len(mine) }}
}

// forestBuildProbe: etree.NewForest, the D-tree rebuild.
func forestBuildProbe(in inputs) probe {
	g := freshGraph(in)
	return probe{n: 3, step: func(int) { etree.NewForest(g, etree.Forward) }}
}

// solved is the initial graph with its SSSP key-edge parents: the input of
// the key-forest, partition and flow-graph probes.
type solved struct {
	g      *graph.Streaming
	parent []int32
}

func solve(in inputs) solved {
	g := freshGraph(in)
	_, parent := algo.SolveSelective(g, in.alg())
	return solved{g, parent}
}

// bulkLoadProbe: etree.KeyForest.BulkLoad, the selective engine's per-batch
// D-tree maintenance.
func bulkLoadProbe(s solved) probe {
	kf := etree.NewKeyForest(len(s.parent))
	return probe{n: 9, step: func(int) { kf.BulkLoad(s.parent) }}
}

// newPartition builds the partition the workload's engine family builds:
// from key-edge parents (selective) or from the structural forest.
func newPartition(k kind, s solved) *dflow.Partition {
	if k == kindAccumulative {
		return dflow.NewPartition(etree.NewForest(s.g, etree.Forward), 0)
	}
	return dflow.NewPartitionFromParents(s.parent, 0)
}

func partitionProbe(k kind, s solved) probe {
	return probe{n: 3, step: func(int) { newPartition(k, s) }}
}

func flowGraphProbe(s solved, part *dflow.Partition) probe {
	return probe{n: 3, step: func(int) { dflow.NewFlowGraph(s.g, part) }}
}

// scheduleProbe: dflow.Schedule over the flows each batch's updates touch.
func scheduleProbe(in inputs, s solved, part *dflow.Partition) probe {
	fg := dflow.NewFlowGraph(s.g, part)
	impacted := make([][]int32, len(in.w.Batches))
	for i, b := range in.w.Batches {
		seen := map[int32]bool{}
		for _, u := range b {
			if f := part.Flow(u.Dst); !seen[f] {
				seen[f] = true
				impacted[i] = append(impacted[i], f)
			}
		}
	}
	return probe{n: len(impacted), step: func(i int) { dflow.Schedule(fg, impacted[i]) }}
}

// codecProbes: wal.EncodeBatch and wal.DecodeBatch, plus the encoded size.
func codecProbes(in inputs) (enc, dec probe, bytesPerUpdate float64) {
	payloads := make([][]byte, len(in.w.Batches))
	total, updates := 0, 0
	for i, b := range in.w.Batches {
		payloads[i] = wal.EncodeBatch(nil, uint64(i+1), b)
		total += len(payloads[i])
		updates += len(b)
	}
	var buf []byte
	units := func(i int) int { return len(in.w.Batches[i]) }
	enc = probe{n: len(payloads), units: units,
		step: func(i int) { buf = wal.EncodeBatch(buf[:0], uint64(i+1), in.w.Batches[i]) }}
	dec = probe{n: len(payloads), units: units,
		step: func(i int) {
			if _, _, err := wal.DecodeBatch(payloads[i]); err != nil {
				panic(err) // the benchmark encoded it one line up
			}
		}}
	return enc, dec, ratio(float64(total), float64(updates))
}

// logProbe: wal.Log.Append (sync=false) or Log.Sync after an untimed append
// (sync=true), on a private log under dir. The log never syncs on its own
// (FsyncOff), so the two costs are timed apart.
func logProbe(in inputs, dir string, sync bool) probe {
	var l *wal.Log
	var tmp string
	n := len(in.w.Batches)
	if n > 64 {
		n = 64
	}
	mustAppend := func(i int) {
		if err := l.Append(uint64(i+1), in.w.Batches[i]); err != nil {
			panic(fmt.Sprintf("wal probe append: %v", err))
		}
	}
	p := probe{n: n,
		reset: func() (err error) {
			if tmp, err = os.MkdirTemp(dir, "walprobe-"); err != nil {
				return err
			}
			l, err = wal.Open(wal.Options{Dir: tmp, Policy: wal.FsyncOff})
			return err
		},
		step: mustAppend,
		close: func() {
			if l != nil {
				l.Close()
			}
			os.RemoveAll(tmp)
		}}
	if sync {
		p.prep = mustAppend
		p.step = func(int) {
			if err := l.Sync(); err != nil {
				panic(fmt.Sprintf("wal probe sync: %v", err))
			}
		}
	}
	return p
}

// stateProbes: the engine constructor, the state snapshot the serving layer
// publishes per batch, top-k over it, and the durable snapshot of it.
type stateProbes struct {
	init, snapshot, topk, walSnapshot probe
}

func newStateProbes(in inputs, dir string) stateProbes {
	var sp stateProbes
	var g *graph.Streaming
	sp.init = probe{n: 3, prep: func(int) { g = freshGraph(in) },
		step: func(int) { newInstance(in, g, engine.Config{}) }}

	g0 := freshGraph(in)
	var tmp string
	mktmp := func() (err error) { tmp, err = os.MkdirTemp(dir, "snapprobe-"); return err }
	rmtmp := func() { os.RemoveAll(tmp) }
	check := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("snapshot probe: %v", err))
		}
	}
	if in.spec.Kind == kindAccumulative {
		e := engine.NewAccumulative(g0, algo.NewPageRank(g0.NumVertices()), engine.Config{})
		sp.snapshot = probe{n: 9, step: func(int) { e.SnapshotState() }}
		st := e.SnapshotState()
		sp.walSnapshot = probe{n: 3, reset: mktmp, close: rmtmp, step: func(i int) {
			check(wal.WriteAccSnapshot(wal.Options{Dir: tmp, Policy: wal.FsyncAlways}, uint64(i+1), g0, st))
		}}
		return sp // no StateSnapshot.TopK on this engine family
	}
	e := engine.NewSelective(g0, in.alg(), engine.Config{})
	sp.snapshot = probe{n: 9, step: func(i int) { e.StateSnapshot(uint64(i)) }}
	snap := e.StateSnapshot(0)
	sp.topk = probe{n: 9, step: func(int) { snap.TopK(10, in.alg().Better) }}
	sp.walSnapshot = probe{n: 3, reset: mktmp, close: rmtmp, step: func(i int) {
		check(wal.WriteSnapshot(wal.Options{Dir: tmp, Policy: wal.FsyncAlways}, uint64(i+1), g0, snap.Vals, snap.Parent))
	}}
	return sp
}

// isolatedProbes makes one pass over every probe and files the results under
// the per-layer names. It runs on every workload, on that workload's inputs.
func isolatedProbes(v values, in inputs, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var firstErr error
	run := func(p probe) (perStep, perUnit sample) {
		if p.step == nil {
			return nil, nil
		}
		a, b, err := p.pass()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return a, b
	}
	const nsPerMs, nsPerUs = 1e6, 1e3

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	a, _ := run(applyProbe(in))
	runtime.ReadMemStats(&m1)
	v.set("graph.apply_isolated_ms_p50", a.p50()/nsPerMs, len(a))
	v.set("graph.apply_allocs_per_batch", ratio(float64(m1.Mallocs-m0.Mallocs), float64(len(a))), len(a))

	_, u := run(forestProbe(in, false))
	v.set("etree.addedge_isolated_ns_per_update", u.p50(), len(u))
	_, u = run(forestProbe(in, true))
	v.set("etree.deledge_isolated_ns_per_update", u.p50(), len(u))
	a, _ = run(forestBuildProbe(in))
	v.set("etree.rebuild_ms", a.p50()/nsPerMs, len(a))

	s := solve(in)
	a, _ = run(bulkLoadProbe(s))
	v.set("etree.bulkload_isolated_ms_p50", a.p50()/nsPerMs, len(a))
	a, _ = run(partitionProbe(in.spec.Kind, s))
	v.set("dflow.partition_ms", a.p50()/nsPerMs, len(a))
	part := newPartition(in.spec.Kind, s)
	v.set("dflow.flows", float64(part.NumFlows()), 1)
	a, _ = run(flowGraphProbe(s, part))
	v.set("dflow.flowgraph_ms", a.p50()/nsPerMs, len(a))
	a, _ = run(scheduleProbe(in, s, part))
	v.set("dflow.schedule_us_p50", a.p50()/nsPerUs, len(a))

	enc, dec, bpu := codecProbes(in)
	_, u = run(enc)
	v.set("wal.encode_ns_per_update", u.p50(), len(u))
	_, u = run(dec)
	v.set("wal.decode_ns_per_update", u.p50(), len(u))
	v.set("wal.bytes_per_update", bpu, len(in.w.Batches))
	a, _ = run(logProbe(in, dir, false))
	v.set("wal.append_isolated_us_p50", a.p50()/nsPerUs, len(a))
	a, _ = run(logProbe(in, dir, true))
	v.set("wal.fsync_isolated_us_p50", a.p50()/nsPerUs, len(a))

	sp := newStateProbes(in, dir)
	a, _ = run(sp.init)
	v.set("engine.init_s", a.p50()/1e9, len(a))
	a, _ = run(sp.snapshot)
	v.set("engine.snapshot_ms_p50", a.p50()/nsPerMs, len(a))
	a, _ = run(sp.topk)
	v.set("engine.topk_isolated_us_p50", a.p50()/nsPerUs, len(a))
	a, _ = run(sp.walSnapshot)
	v.set("wal.snapshot_ms", a.p50()/nsPerMs, len(a))
	return firstErr
}

// batchProbe: one ProcessBatch per step on a private engine, the in-situ
// view of the layers that cannot be called alone (trim, per-flow compute,
// the scheduler). last holds the stats of the most recent step.
func batchProbe(in inputs, cfg engine.Config, last *engine.BatchStats) probe {
	var inst instance
	return probe{n: len(in.w.Batches),
		reset: func() error { inst = newInstance(in, freshGraph(in), cfg); return nil },
		step: func(i int) {
			st, err := inst.process(in.w.Batches[i])
			if err != nil {
				panic(fmt.Sprintf("batch probe: %v", err))
			}
			*last = st
		},
		units: func(i int) int { return len(in.w.Batches[i]) }}
}
