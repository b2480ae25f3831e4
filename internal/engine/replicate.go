package engine

import (
	"math"
	"sync/atomic"

	"repro/internal/dflow"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Hub replication (Config.HubReplication) splits the message fan-in of
// high-degree vertices across per-worker replicas, closing the bottleneck
// where one flow — and therefore one scheduler unit — serializes all
// traffic into a power-law hub (the Rhizomes/Diffusions direction:
// replicated vertex objects with in-network reductions).
//
// A replicaSet is the engine's per-batch replication plan. Each vertex
// currently carrying an in-adjacency hub index (graph.Streaming.InHub) gets
// R replicas plus one diffused-combine step, addressed as *virtual flows*
// just past the real flow id space:
//
//	replica r of hub slot k = nf + k*(R+1) + r
//	combine of hub slot k   = nf + k*(R+1) + R
//
// Virtual flows get inbox slots and scheduling units like real flows, but
// no vertices, no trim lists, and no flow-graph nodes: combine nodes are
// schedule-time constructs (dflow.ScheduleWithCombines), so repartitioning
// never migrates them. Senders route hub-bound messages to a replica chosen
// by sender identity; replica units fold their inbox into a partial
// aggregate (min/max for selective, partial sums for accumulative); the
// combine unit merges the partials and forwards at most one residual
// message into the hub's home flow, which remains the only writer of the
// hub's state — single-owner semantics and therefore every declared
// guarantee survive replication.
//
// The hub set is maintained incrementally: a vertex's in-degree only
// changes when it is the destination of an applied update, so update()
// inspects just those vertices against the graph's hysteresis signal.
type replicaSet struct {
	nf   int      // real flows this batch (virtual ids start here)
	r    int      // replicas per hub
	hubs []uint32 // hub vertex by slot
	slot []int32  // vertex -> hub slot, -1 when not replicated (retained)

	// Accumulative partial-sum slabs (unused by the selective engine,
	// which folds in-flight messages instead). parts holds R partial
	// aggregates per hub, comb the combine stage's accumulator; all values
	// are atomic float64 bit patterns, padded to a cache line per slot so
	// replicas pinned to different workers never false-share. The dirty
	// flags implement the add-then-set / clear-then-drain handoff that
	// makes the slabs loss-free without locks.
	dim       int
	dimPad    int
	parts     []uint64 // len(hubs) * r * dimPad
	comb      []uint64 // len(hubs) * dimPad
	repDirty  *flags   // len(hubs) * r
	combDirty *flags   // len(hubs)
}

// slabPad rounds a state dimension up to a full cache line of float64s.
const slabPad = 8

// newReplicaSet scans g's current hubs and builds the plan. dim is the
// engine's state dimension (0 for the selective engine: no slabs).
func newReplicaSet(g *graph.Streaming, nf, replicas, dim int) *replicaSet {
	rs := &replicaSet{
		nf:   nf,
		r:    replicas,
		slot: make([]int32, g.NumVertices()),
		dim:  dim,
	}
	if rs.r < 1 {
		rs.r = 1
	}
	if dim > 0 {
		rs.dimPad = (dim + slabPad - 1) / slabPad * slabPad
	}
	for i := range rs.slot {
		rs.slot[i] = -1
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.InHub(graph.VertexID(v)) {
			rs.addHub(uint32(v))
		}
	}
	rs.ensure()
	return rs
}

// update re-bases the plan on this batch's flow count and promotes/demotes
// hubs whose in-degree crossed the graph's hysteresis band. Call it after
// the batch has been applied to the graph and before scheduling.
func (rs *replicaSet) update(g *graph.Streaming, applied graph.Batch, nf int) {
	rs.nf = nf
	for _, u := range applied {
		v := uint32(u.Dst)
		switch hub := g.InHub(u.Dst); {
		case hub && rs.slot[v] < 0:
			rs.addHub(v)
		case !hub && rs.slot[v] >= 0:
			rs.removeHub(v)
		}
	}
	rs.ensure()
}

func (rs *replicaSet) addHub(v uint32) {
	rs.slot[v] = int32(len(rs.hubs))
	rs.hubs = append(rs.hubs, v)
}

// removeHub swap-deletes v's slot. Safe between batches only: the slabs
// are quiescent (all-zero) then, so slot reassignment moves no state.
func (rs *replicaSet) removeHub(v uint32) {
	k := rs.slot[v]
	last := len(rs.hubs) - 1
	moved := rs.hubs[last]
	rs.hubs[k] = moved
	rs.hubs = rs.hubs[:last]
	rs.slot[moved] = k
	rs.slot[v] = -1
}

// ensure sizes the slabs and dirty flags for the current hub count. Reused
// capacity is already zero: every batch drains the slabs to quiescence.
func (rs *replicaSet) ensure() {
	h := len(rs.hubs)
	if rs.repDirty == nil || len(rs.repDirty.w) < h*rs.r {
		rs.repDirty = newFlags(h * rs.r)
		rs.combDirty = newFlags(h)
	}
	if rs.dim == 0 {
		return
	}
	if need := h * rs.r * rs.dimPad; cap(rs.parts) < need {
		rs.parts = make([]uint64, need)
		rs.comb = make([]uint64, h*rs.dimPad)
	}
}

// numFlows is the inbox/unit table size covering real and virtual flows.
func (rs *replicaSet) numFlows() int { return rs.nf + len(rs.hubs)*(rs.r+1) }

func (rs *replicaSet) replicaFlow(k, rep int) int32 { return int32(rs.nf + k*(rs.r+1) + rep) }
func (rs *replicaSet) combineFlow(k int) int32      { return int32(rs.nf + k*(rs.r+1) + rs.r) }

// slotOf returns v's hub slot, or -1 — the per-edge hot-path test.
func (rs *replicaSet) slotOf(v uint32) int32 { return rs.slot[v] }

// virtual decodes a flow id: ok reports whether f is virtual, and then k is
// the hub slot and either combine is set or rep is the replica index.
func (rs *replicaSet) virtual(f int32) (k, rep int, combine bool, ok bool) {
	if int(f) < rs.nf {
		return 0, 0, false, false
	}
	q := int(f) - rs.nf
	k = q / (rs.r + 1)
	rep = q % (rs.r + 1)
	if rep == rs.r {
		return k, 0, true, true
	}
	return k, rep, false, true
}

// routeOf picks the replica a sender's messages ride on: a hash of the
// sender spreads a hub's fan-in across all replicas while keeping any one
// sender's messages ordered within a single inbox.
func (rs *replicaSet) routeOf(sender uint32) int {
	return int(rng.Mix64(uint64(sender)) % uint64(rs.r))
}

// pinFor maps a virtual flow to its scheduler pin (see unit.pin): replicas
// of one hub land on consecutive shards starting from a hub-specific base,
// so with workers >= replicas no two replicas share a worker's deque; the
// combine takes the next shard after the replicas.
func (rs *replicaSet) pinFor(f int32, workers int) int32 {
	k, rep, combine, ok := rs.virtual(f)
	if !ok {
		return 0
	}
	idx := rep
	if combine {
		idx = rs.r
	}
	base := rng.Mix64(uint64(rs.hubs[k]))
	return 1 + int32((base+uint64(idx))%uint64(workers))
}

// combineSpecs materializes the dflow scheduling specs for every current
// hub; ScheduleWithCombines drops those whose home flow is not impacted.
func (rs *replicaSet) combineSpecs(flowOf func(graph.VertexID) int32, buf []dflow.CombineSpec) []dflow.CombineSpec {
	buf = buf[:0]
	for k, h := range rs.hubs {
		reps := make([]int32, rs.r)
		for rep := range reps {
			reps[rep] = rs.replicaFlow(k, rep)
		}
		buf = append(buf, dflow.CombineSpec{
			HomeFlow: flowOf(graph.VertexID(h)),
			Replicas: reps,
			Combine:  rs.combineFlow(k),
		})
	}
	return buf
}

// addBits atomically adds x to the float64 stored at p as bits.
func addBits(p *uint64, x float64) {
	for {
		old := atomic.LoadUint64(p)
		nw := math.Float64bits(math.Float64frombits(old) + x)
		if atomic.CompareAndSwapUint64(p, old, nw) {
			return
		}
	}
}

// swapBits atomically takes the float64 at p, leaving zero.
func swapBits(p *uint64) float64 {
	return math.Float64frombits(atomic.SwapUint64(p, 0))
}

// addPartial folds one delta into replica rep's partial aggregate.
func (rs *replicaSet) addPartial(k, rep, d int, delta float64) {
	addBits(&rs.parts[(k*rs.r+rep)*rs.dimPad+d], delta)
}

// replicaDirtySwapSet marks replica (k,rep) as holding undrained partials;
// reports whether it was already marked (no new notification needed).
// Senders call it *after* addPartial — the add-then-set side of the
// handoff.
func (rs *replicaSet) replicaDirtySwapSet(k, rep int) bool {
	return rs.repDirty.swapSet(uint32(k*rs.r + rep))
}

// drainReplicaInto moves replica (k,rep)'s partials into the combine
// accumulator and reports whether anything moved. It clears the dirty mark
// *before* swapping the slots (clear-then-drain), so a concurrent
// addPartial either lands in this swap or triggers a fresh notification —
// never both lost.
func (rs *replicaSet) drainReplicaInto(k, rep int) bool {
	rs.repDirty.clear(uint32(k*rs.r + rep))
	base := (k*rs.r + rep) * rs.dimPad
	cbase := k * rs.dimPad
	any := false
	for d := 0; d < rs.dim; d++ {
		if x := swapBits(&rs.parts[base+d]); x != 0 {
			addBits(&rs.comb[cbase+d], x)
			any = true
		}
	}
	return any
}

// combineDirtySwapSet is replicaDirtySwapSet for the combine stage.
func (rs *replicaSet) combineDirtySwapSet(k int) bool {
	return rs.combDirty.swapSet(uint32(k))
}

// drainCombine hands the combine accumulator's residual to apply (one call
// per nonzero dimension) under the same clear-then-drain discipline, and
// reports whether anything was applied.
func (rs *replicaSet) drainCombine(k int, apply func(d int, x float64)) bool {
	rs.combDirty.clear(uint32(k))
	base := k * rs.dimPad
	any := false
	for d := 0; d < rs.dim; d++ {
		if x := swapBits(&rs.comb[base+d]); x != 0 {
			apply(d, x)
			any = true
		}
	}
	return any
}

// pullHub drains every replica partial and the combine accumulator of hub
// slot k straight through to apply — the pull-inside path: when the hub's
// home flow is about to recompute the hub anyway, it folds all mass
// deposited so far instead of waiting for the replica/combine pipeline's
// notifications, so the hub never broadcasts from a stale aggregate. Safe
// concurrently with the pipeline's own drains: every slot moves by atomic
// swap, so each delta lands exactly once whichever side wins.
func (rs *replicaSet) pullHub(k int, apply func(d int, x float64)) bool {
	for rep := 0; rep < rs.r; rep++ {
		rs.drainReplicaInto(k, rep)
	}
	return rs.drainCombine(k, apply)
}
