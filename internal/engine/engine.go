// Package engine implements GraphFly itself (the paper's core
// contribution): the Manager/Worker runtime of Fig 9-10 that processes a
// batch of edge updates by (1) maintaining the D-trees and dependency-flow
// partition, (2) identifying trim sets at tree-node cost before refinement,
// (3) scheduling impacted flows in space-time order with cyclic groups
// merged, and (4) letting each flow fuse its refinement with its
// recomputation and exchange cross-flow influence through messages — no
// global barrier between the two phases.
//
// One batch driver (driver.go) owns that loop; three engine families plug
// their kernels into it: Selective (SSSP/SSWP/BFS/CC, key-edge D-trees,
// trimming), Accumulative (PageRank/LP, structural D-trees, delta-push
// aggregation) and Local (triangle counting/k-core, structural D-trees,
// seeded recomputation).
package engine

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cachesim"
	"repro/internal/etree"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// Config controls a GraphFly engine instance. The zero value is usable:
// all workers, default flow cap, no profiling, fully asynchronous.
type Config struct {
	// Workers is the number of worker goroutines (GOMAXPROCS if <= 0),
	// each owning one shard of the work-stealing unit scheduler (sched.go).
	// At 1 the batch runs sequentially in schedule-level order: the
	// reference execution the parallel runs are compared against.
	Workers int
	// FlowCap caps dependency-flow size (dflow.DefaultCap if <= 0).
	FlowCap int
	// Probe receives instrumented memory accesses (cachesim.Nop if nil).
	Probe cachesim.Probe
	// ScatteredStorage disables the specialized flow-blocked layout
	// (the "GraphFly-w/o-SSF" ablation of Fig 13).
	ScatteredStorage bool
	// TwoPhase inserts a global barrier between refinement and
	// recomputation (the execution-model ablation: what GraphFly removes).
	TwoPhase bool
	// NoSCCMerge schedules every impacted flow independently instead of
	// merging cyclic groups; correctness is preserved by the trimmed-bit
	// protocol, locality may suffer (ablation).
	NoSCCMerge bool
	// RepartitionEvery, when > 0, also re-derives the flows from the
	// current D-trees every K batches (1 = every batch): a test lever that
	// puts mid-stream repartitions into a stream. The zero value has no
	// clock: flows are derived at construction and restore and re-derived
	// only when a kernel rebuilds its D-trees wholesale; in between, the
	// flow graph's refcounts keep it exact for the partition in force.
	RepartitionEvery int
	// BackwardFlows swaps the roles of the two triangles (§V-A Discussion):
	// the backward-triangle D-trees partition the graph into flows and the
	// forward triangle constrains execution order. Useful when most edges
	// live in the upper triangle. Accumulative engine only.
	BackwardFlows bool
	// TraceWork records per-flow work and cross-flow message volume for
	// the distributed simulation (small overhead).
	TraceWork bool
	// Metrics, when non-nil, receives per-batch counters and per-phase
	// duration histograms (internal/metrics). Nil costs one pointer
	// comparison per batch — the same no-op discipline as Probe.
	Metrics *metrics.Registry
	// FaultSkipTrim deliberately skips the selective engine's key-edge
	// subtree trim on deletions — a seeded consistency bug used by
	// internal/oracle's mutation tests to prove the harness detects
	// stale-value violations. Never set outside tests.
	FaultSkipTrim bool
	// HubThreshold overrides the graph's hub-index build threshold
	// (graph.Options.HubThreshold); 0 keeps the graph's current setting.
	// The drop floor follows at a quarter of the build threshold.
	HubThreshold int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) probe() cachesim.Probe {
	if c.Probe == nil {
		return cachesim.Nop{}
	}
	return c.Probe
}

func (c Config) flowDirection() etree.Direction {
	if c.BackwardFlows {
		return etree.Backward
	}
	return etree.Forward
}

// BatchStats reports what one ProcessBatch did.
type BatchStats struct {
	Applied     int // updates that took effect
	TrimRoots   int // deletions that killed a key edge
	Trimmed     int // vertices invalidated by trimming
	Impacted    int // flows seeded with work
	Units       int // scheduling units (cyclic groups merged)
	Levels      int // depth of the space-time schedule
	CrossMsgs   int64
	Relaxations int64 // edge relaxations / delta pushes
	Pulls       int64 // refinement pulls
	Dispatches  int64 // scheduling units handed to workers
	Steals      int64 // dispatches served from another worker's deque
	SchedParks  int64 // scheduler idle waits during compute

	ApplyTime    time.Duration
	MaintainTime time.Duration // D-tree + flow index maintenance (total)
	DtreeTime    time.Duration // D-tree incremental maintenance only
	TrimTime     time.Duration
	ScheduleTime time.Duration
	ComputeTime  time.Duration
	Total        time.Duration

	// Trace is non-nil when Config.TraceWork is set.
	Trace *WorkTrace
}

// WorkTrace captures where the work happened, for the distributed
// cost-model simulation (Fig 16).
type WorkTrace struct {
	// FlowWork is per-flow work in edge-operations.
	FlowWork map[int32]int64
	// FlowMsgs counts cross-flow messages by (src,dst) flow pair.
	FlowMsgs map[[2]int32]int64
}

func newWorkTrace() *WorkTrace {
	return &WorkTrace{
		FlowWork: make(map[int32]int64),
		FlowMsgs: make(map[[2]int32]int64),
	}
}

// flags is an atomic per-vertex flag array (one word per vertex: simple and
// contention-free at our scales).
type flags struct{ w []uint32 }

func newFlags(n int) *flags { return &flags{w: make([]uint32, n)} }

func (f *flags) get(v uint32) bool { return atomic.LoadUint32(&f.w[v]) != 0 }
func (f *flags) set(v uint32)      { atomic.StoreUint32(&f.w[v], 1) }
func (f *flags) clear(v uint32)    { atomic.StoreUint32(&f.w[v], 0) }
func (f *flags) swapSet(v uint32) bool {
	return atomic.SwapUint32(&f.w[v], 1) != 0 // reports previously set
}

// Symmetrize expands a batch for undirected algorithms: each update is
// canonicalized to its (min,max) pair, deduplicated with the *last* update
// for a pair winning (batch order semantics: an add followed by a del of
// the same undirected edge is a delete, not an add), and emitted in both
// directions so the directed graph faithfully models an undirected one.
func Symmetrize(b graph.Batch) graph.Batch {
	var s Symmetrizer
	return s.Symmetrize(b)
}

// symKey is an undirected vertex pair in canonical (min,max) order.
type symKey struct{ a, b graph.VertexID }

// Symmetrizer is the retained-state form of Symmetrize: the dedup map and
// both batch buffers survive across calls (the map emptied with clear, the
// slices re-sliced), so an engine symmetrizing every batch allocates only
// when a batch outgrows all previous ones.
//
// Aliasing: the returned batch shares the Symmetrizer's buffer and is valid
// until the next Symmetrize call on the same receiver.
type Symmetrizer struct {
	at    map[symKey]int
	canon graph.Batch
	out   graph.Batch
}

// Symmetrize canonicalizes, dedups (last update wins), and mirrors b.
func (s *Symmetrizer) Symmetrize(b graph.Batch) graph.Batch {
	if s.at == nil {
		s.at = make(map[symKey]int, len(b))
	} else {
		clear(s.at)
	}
	s.canon = s.canon[:0]
	for _, u := range b {
		a, c := u.Src, u.Dst
		if a > c {
			a, c = c, a
		}
		cu := graph.Update{Edge: graph.Edge{Src: a, Dst: c, W: u.W}, Del: u.Del}
		if i, ok := s.at[symKey{a, c}]; ok {
			s.canon[i] = cu
			continue
		}
		s.at[symKey{a, c}] = len(s.canon)
		s.canon = append(s.canon, cu)
	}
	s.out = s.out[:0]
	for _, u := range s.canon {
		s.out = append(s.out,
			u,
			graph.Update{Edge: graph.Edge{Src: u.Dst, Dst: u.Src, W: u.W}, Del: u.Del},
		)
	}
	return s.out
}
