// Package dist is the distributed GraphFly of §VI in two parts: the runtime
// — a coordinator (coord.go) and worker processes (workerproc.go) exchanging
// framed messages (wire.go) over reliable links (link.go), each worker's
// durable state a wal directory of batch log and worker snapshots
// (workerproc.go's workerStore) — and, in this file, a deterministic cost
// model that prices cluster sizes the runtime is never run at (the
// documented substitution for the paper's 16-node MPI cluster — DESIGN.md
// §2).
//
// The cost model is driven by real execution traces: the single-machine
// engine records, per batch, how much work each dependency-flow performed
// and how many messages crossed each flow pair (engine.WorkTrace). The
// cluster model then
//
//   - places flows on worker nodes (the Manager's flow-worker table),
//     preferring to co-locate communicating flows (§VI Data Management),
//   - balances vertex/work load across nodes, optionally with work
//     stealing (§VI Workload Balancing),
//   - charges per-message latency and per-byte bandwidth for flow messages
//     that cross node boundaries (§VI Communication), and
//   - reports the resulting makespan.
//
// Because the traces come from the real engine, the scaling shapes of
// Fig 16 (time falls with nodes until communication dominates) emerge from
// the actual partitioning and communication structure of the workload.
package dist

import (
	"fmt"
	"sort"

	"repro/internal/engine"
)

// CostModel prices the simulated cluster. Defaults approximate the paper's
// testbed: 2.1 GHz cores (≈1 ns per simple edge op after IPC effects) and
// a 10 Gbps network with small control messages.
type CostModel struct {
	// EdgeOpNs is the compute cost of one edge operation on one core.
	EdgeOpNs float64
	// CoresPerNode is the number of worker cores per node.
	CoresPerNode int
	// MsgLatencyNs is the fixed cost of one cross-node message.
	MsgLatencyNs float64
	// MsgBytes is the payload size of one flow message.
	MsgBytes float64
	// ByteNs is the per-byte transfer cost (10 Gbps ≈ 0.8 ns/byte).
	ByteNs float64
	// BatchingFactor is how many flow messages the runtime coalesces into
	// one network send between a node pair (MPI-style aggregation); the
	// fixed latency is amortized across the batch.
	BatchingFactor float64
	// ManagerNs is the fixed per-batch Manager overhead (scheduling,
	// flow-worker table lookups).
	ManagerNs float64
}

// DefaultCostModel returns the paper-testbed-flavoured defaults.
func DefaultCostModel() CostModel {
	return CostModel{
		EdgeOpNs:       4,
		CoresPerNode:   28,
		MsgLatencyNs:   2500, // ~2.5 µs one-way small-message latency
		MsgBytes:       16,   // vertex id + delta payload
		ByteNs:         0.8,
		BatchingFactor: 64,
		ManagerNs:      50_000,
	}
}

// Strategy selects the flow-placement policy.
type Strategy int

const (
	// RoundRobin places flow f on node f % N (no locality, no balance).
	RoundRobin Strategy = iota
	// LPT places flows greedily, heaviest first, on the least-loaded node
	// (load balance, ignores communication).
	LPT
	// LocalityLPT is LPT with a communication-affinity bonus: a flow
	// prefers the node already holding the flows it talks to, breaking
	// ties toward the less-loaded node. This models §VI's placement of
	// same-D-tree flows on the same Worker.
	LocalityLPT
)

func (s Strategy) String() string {
	switch s {
	case RoundRobin:
		return "round-robin"
	case LPT:
		return "lpt"
	case LocalityLPT:
		return "locality-lpt"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Placement maps flows to nodes.
type Placement struct {
	NodeOf map[int32]int
	Nodes  int
}

// Place computes a flow placement for the trace.
func Place(trace *engine.WorkTrace, nodes int, strat Strategy) Placement {
	p := Placement{NodeOf: make(map[int32]int, len(trace.FlowWork)), Nodes: nodes}
	if nodes <= 0 {
		nodes = 1
		p.Nodes = 1
	}
	flows := make([]int32, 0, len(trace.FlowWork))
	for f := range trace.FlowWork {
		flows = append(flows, f)
	}
	// Heaviest-first for the greedy strategies; sorted for determinism.
	sort.Slice(flows, func(i, j int) bool {
		wi, wj := trace.FlowWork[flows[i]], trace.FlowWork[flows[j]]
		if wi != wj {
			return wi > wj
		}
		return flows[i] < flows[j]
	})

	switch strat {
	case RoundRobin:
		for i, f := range flows {
			p.NodeOf[f] = i % nodes
		}
	case LPT:
		load := make([]int64, nodes)
		for _, f := range flows {
			best := 0
			for n := 1; n < nodes; n++ {
				if load[n] < load[best] {
					best = n
				}
			}
			p.NodeOf[f] = best
			load[best] += trace.FlowWork[f]
		}
	case LocalityLPT:
		load := make([]int64, nodes)
		// Per-flow communication partners.
		partners := make(map[int32]map[int32]int64)
		addP := func(a, b int32, n int64) {
			m := partners[a]
			if m == nil {
				m = make(map[int32]int64)
				partners[a] = m
			}
			m[b] += n
		}
		for pair, n := range trace.FlowMsgs {
			addP(pair[0], pair[1], n)
			addP(pair[1], pair[0], n)
		}
		var totalWork int64
		for _, w := range trace.FlowWork {
			totalWork += w
		}
		target := totalWork/int64(nodes) + 1
		for _, f := range flows {
			// Affinity score per node from already-placed partners.
			aff := make([]int64, nodes)
			for g, n := range partners[f] {
				if node, ok := p.NodeOf[g]; ok {
					aff[node] += n
				}
			}
			best, bestScore := 0, int64(-1)<<62
			for n := 0; n < nodes; n++ {
				if load[n] >= target*2 {
					continue // badly overloaded: not a candidate
				}
				score := aff[n]*int64(100) - load[n]/1024
				if score > bestScore {
					best, bestScore = n, score
				}
			}
			p.NodeOf[f] = best
			load[best] += trace.FlowWork[f]
		}
	}
	return p
}

// Result reports one simulated batch execution.
type Result struct {
	MakespanNs   float64
	ComputeNs    []float64 // per node
	CommNs       []float64 // per node
	CrossMsgs    int64
	LocalMsgs    int64
	StolenWorkNs float64 // work moved by work stealing
}

// Simulate prices one batch trace on a cluster of the given size.
// workStealing lets idle nodes absorb divisible surplus compute from
// loaded ones (an optimistic bound on §VI's stealing, still paying the
// communication bill at the original placement).
func Simulate(trace *engine.WorkTrace, pl Placement, cm CostModel, workStealing bool) Result {
	nodes := pl.Nodes
	if nodes <= 0 {
		nodes = 1
	}
	res := Result{
		ComputeNs: make([]float64, nodes),
		CommNs:    make([]float64, nodes),
	}
	flows := make([]int32, 0, len(trace.FlowWork))
	for f := range trace.FlowWork {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	for _, f := range flows {
		n := pl.NodeOf[f]
		res.ComputeNs[n] += float64(trace.FlowWork[f]) * cm.EdgeOpNs / float64(cm.CoresPerNode)
	}
	bf := cm.BatchingFactor
	if bf < 1 {
		bf = 1
	}
	msgCost := cm.MsgLatencyNs/bf + cm.MsgBytes*cm.ByteNs
	// Deterministic pair order: float accumulation into CommNs must not
	// depend on map iteration order, or repeated simulations of the same
	// trace drift by an ulp.
	pairs := make([][2]int32, 0, len(trace.FlowMsgs))
	for pair := range trace.FlowMsgs {
		pairs = append(pairs, pair)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, pair := range pairs {
		cnt := trace.FlowMsgs[pair]
		src, dst := pl.NodeOf[pair[0]], pl.NodeOf[pair[1]]
		if src == dst {
			res.LocalMsgs += cnt
			continue
		}
		res.CrossMsgs += cnt
		cost := float64(cnt) * msgCost
		res.CommNs[src] += cost / 2
		res.CommNs[dst] += cost / 2
	}

	if workStealing && nodes > 1 {
		// Even out compute: total/nodes floor, but no node can go below
		// its communication-bound time.
		var total float64
		for _, c := range res.ComputeNs {
			total += c
		}
		mean := total / float64(nodes)
		for n := range res.ComputeNs {
			if res.ComputeNs[n] > mean {
				res.StolenWorkNs += res.ComputeNs[n] - mean
				res.ComputeNs[n] = mean
			} else {
				res.ComputeNs[n] = mean
			}
		}
	}
	for n := 0; n < nodes; n++ {
		if t := res.ComputeNs[n] + res.CommNs[n]; t > res.MakespanNs {
			res.MakespanNs = t
		}
	}
	res.MakespanNs += cm.ManagerNs
	return res
}

// Sweep runs Simulate over a range of cluster sizes and returns makespans
// in nanoseconds, index i holding the result for i+1 nodes.
func Sweep(trace *engine.WorkTrace, maxNodes int, cm CostModel, strat Strategy, workStealing bool) []float64 {
	out := make([]float64, maxNodes)
	for n := 1; n <= maxNodes; n++ {
		pl := Place(trace, n, strat)
		out[n-1] = Simulate(trace, pl, cm, workStealing).MakespanNs
	}
	return out
}

// MergeTraces folds multiple batch traces into one cumulative trace
// (placement is then optimized for the whole run, like the paper's
// steady-state assignment).
func MergeTraces(traces []*engine.WorkTrace) *engine.WorkTrace {
	out := &engine.WorkTrace{
		FlowWork: make(map[int32]int64),
		FlowMsgs: make(map[[2]int32]int64),
	}
	for _, t := range traces {
		if t == nil {
			continue
		}
		for f, w := range t.FlowWork {
			out.FlowWork[f] += w
		}
		for p, n := range t.FlowMsgs {
			out.FlowMsgs[p] += n
		}
	}
	return out
}
