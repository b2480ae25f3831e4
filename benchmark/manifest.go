package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef declares one reported metric. BENCHMARK.json is generated from
// these tables (-manifest) and the schema test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd lists what a user of the system sees. Every metric is defined on
// every workload (README "End-to-end metrics" gives the per-workload
// reading); Bound is the worsening of the median that counts as a
// regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"updates_per_s", "updates/s", "higher", 0.25},
	{"batch_ms_p50", "ms", "lower", 0.25},
	{"batch_ms_p95", "ms", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
}

// perLayer lists the traced run's metrics, grouped by the repo module that
// owns them. A metric of a layer the workload does not execute reads 0.
var perLayer = []metricDef{
	// graph: batch apply, hub index.
	{Name: "graph.apply_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "graph.apply_share", Unit: "ratio", Better: "lower"},
	{Name: "graph.apply_isolated_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "graph.apply_allocs_per_batch", Unit: "count", Better: "lower"},
	// etree: D-tree forest maintenance.
	{Name: "etree.maintain_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "etree.maintain_share", Unit: "ratio", Better: "lower"},
	{Name: "etree.addedge_isolated_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "etree.deledge_isolated_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "etree.rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "etree.bulkload_isolated_ms_p50", Unit: "ms", Better: "lower"},
	// dflow: partition, flow graph, schedule.
	{Name: "dflow.flowindex_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dflow.flowindex_share", Unit: "ratio", Better: "lower"},
	{Name: "dflow.repartition_batch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dflow.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "dflow.flowgraph_ms", Unit: "ms", Better: "lower"},
	{Name: "dflow.schedule_us_p50", Unit: "us", Better: "lower"},
	{Name: "dflow.flows", Unit: "count", Better: "higher"},
	{Name: "dflow.units_per_batch", Unit: "count", Better: "higher"},
	{Name: "dflow.levels_per_batch", Unit: "count", Better: "lower"},
	// engine: trim.
	{Name: "engine.trim_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.trim_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.trim_roots_per_batch", Unit: "count", Better: "lower"},
	{Name: "engine.trimmed_per_batch", Unit: "count", Better: "lower"},
	// engine: per-flow compute.
	{Name: "engine.compute_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.compute_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "engine.compute_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.relaxations_per_batch", Unit: "count", Better: "lower"},
	{Name: "engine.pulls_per_batch", Unit: "count", Better: "lower"},
	{Name: "engine.relax_per_us", Unit: "1/us", Better: "higher"},
	{Name: "engine.cross_msgs_per_batch", Unit: "count", Better: "lower"},
	// engine: scheduler and inboxes.
	{Name: "engine.schedule_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.schedule_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.dispatches_per_batch", Unit: "count", Better: "lower"},
	{Name: "engine.steals_per_batch", Unit: "count", Better: "lower"},
	{Name: "engine.parks_per_batch", Unit: "count", Better: "lower"},
	{Name: "engine.w1_batch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.speedup_w2", Unit: "ratio", Better: "higher"},
	// engine: state (constructor, snapshot publish, reads).
	{Name: "engine.init_s", Unit: "s", Better: "lower"},
	{Name: "engine.restore_s", Unit: "s", Better: "lower"},
	{Name: "engine.snapshot_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.topk_isolated_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.allocs_per_batch", Unit: "count", Better: "lower"},
	{Name: "engine.alloc_kb_per_batch", Unit: "kB", Better: "lower"},
	// wal: codec, append, fsync / group commit, snapshot, recovery.
	{Name: "wal.encode_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "wal.decode_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "wal.bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "wal.append_isolated_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_isolated_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_us_p95", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs_per_append", Unit: "ratio", Better: "lower"},
	{Name: "wal.snapshots", Unit: "count", Better: "lower"},
	{Name: "wal.recover_s", Unit: "s", Better: "lower"},
	{Name: "wal.recover_restore_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.recover_replay_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.replayed_batches", Unit: "count", Better: "lower"},
	// serve: wire, admission, session queue, applier, reads.
	{Name: "serve.wire_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.ack_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.apply_lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.apply_lag_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "serve.read_lag_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.read_lag_us_p95", Unit: "us", Better: "lower"},
	{Name: "serve.group_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.rejects", Unit: "count", Better: "lower"},
	{Name: "serve.backlog_max", Unit: "count", Better: "lower"},
	{Name: "serve.backlog_end", Unit: "count", Better: "lower"},
	{Name: "serve.closed_batches_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.ack_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.ack_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "serve.ack_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.visible_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.read_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.read_us_p99", Unit: "us", Better: "lower"},
	{Name: "serve.topk_us_p50", Unit: "us", Better: "lower"},
	// harness: validity of the run itself.
	{Name: "loadgen.late_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_ms_max", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "budget.unattributed_share_p50", Unit: "ratio", Better: "lower"},
	{Name: "budget.unattributed_share_p95", Unit: "ratio", Better: "lower"},
	{Name: "gen.generate_s", Unit: "s", Better: "lower"},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []manifestWl `json:"workloads"`
	EndToEnd   []metricDef  `json:"end_to_end"`
	PerLayer   []metricDef  `json:"per_layer"` // Bound is 0 and omitted
}

type manifestWl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one contract run measures.
const runSeconds = 25

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range workloads {
		m.Workloads = append(m.Workloads, manifestWl{s.Name, s.Why})
	}
	return m
}

// measured is one reported value.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind the value
}

// values collects a run's metrics by name and checks them against a table.
type values map[string]measured

func (v values) set(name string, x float64, n int) { v[name] = measured{Value: x, N: n} }

// finish keeps exactly the metrics of defs, stamps their units, and reports
// anything missing or not finite. Per-layer metrics a workload does not
// produce are filled with 0 (fillZero); end-to-end metrics must all be set.
func (v values) finish(defs []metricDef, fillZero bool) (values, error) {
	out := make(values, len(defs))
	for _, d := range defs {
		m, ok := v[d.Name]
		if !ok && !fillZero {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, m.Value)
		}
		m.Unit = d.Unit
		out[d.Name] = m
	}
	for name := range v {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared in the manifest tables", name)
		}
	}
	return out, nil
}

// contractLine is the last line of standard output the driver parses.
type contractLine struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]contractMeasure `json:"metrics"`
}

type contractMeasure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) contractJSON() string {
	cl := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]contractMeasure, len(r.Metrics))}
	for k, m := range r.Metrics {
		cl.Metrics[k] = contractMeasure{m.Value, m.Unit}
	}
	b, err := json.Marshal(cl)
	if err != nil {
		panic(err) // finite floats and strings only: cannot fail
	}
	return string(b)
}
