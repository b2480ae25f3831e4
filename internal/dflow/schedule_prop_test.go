package dflow

import (
	"testing"

	"repro/internal/rng"
)

// Property tests for Schedule over randomized flow digraphs (satellite of
// the bench/metrics PR): for every condensed edge u->v between impacted
// flows, level(u) < level(v), and every set of mutually-reachable
// (cyclic) impacted flows lands in exactly one Group.
//
// The FlowGraph is built directly via bumpFlowEdge — Schedule only consults
// OutFlows, so no Partition is needed.

// newFlowGraphN returns an empty FlowGraph over n flows with no partition.
func newFlowGraphN(n int) *FlowGraph {
	fg := &FlowGraph{}
	fg.sizeFor(n)
	return fg
}

// randFlowGraph builds a random flow digraph on n flows with roughly
// density*n*n directed edges (no self-loops; self-edges are impossible in
// a real FlowGraph since AddEdge drops same-flow pairs).
func randFlowGraph(r *rng.Xoshiro256, n int, density float64) *FlowGraph {
	fg := newFlowGraphN(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || r.Float64() >= density {
				continue
			}
			fg.bumpFlowEdge(int32(u), int32(v), 1)
		}
	}
	return fg
}

// reachableWithin computes reachability from src restricted to the
// impacted set, following out-edges along paths of length >= 1 (src is in
// the result only if it lies on a cycle back to itself, which is exactly
// what SCC co-membership needs).
func reachableWithin(fg *FlowGraph, impacted map[int32]bool, src int32) map[int32]bool {
	seen := make(map[int32]bool)
	queue := []int32{src}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		fg.OutFlows(f, func(g int32) {
			if !impacted[g] || seen[g] {
				return
			}
			seen[g] = true
			queue = append(queue, g)
		})
	}
	return seen
}

// sameSCC reports whether impacted flows a and b are mutually reachable
// through impacted flows — the reference definition of "must share a
// Group".
func sameSCC(fg *FlowGraph, impacted map[int32]bool, a, b int32) bool {
	if a == b {
		return true
	}
	return reachableWithin(fg, impacted, a)[b] && reachableWithin(fg, impacted, b)[a]
}

func checkScheduleProperties(t *testing.T, fg *FlowGraph, impacted map[int32]bool, seed uint64) {
	t.Helper()
	list := make([]int32, 0, len(impacted))
	for f := range impacted {
		list = append(list, f)
	}
	groups := Schedule(fg, list)

	// Every impacted flow appears in exactly one group; nothing else does.
	groupOf := make(map[int32]int, len(impacted))
	levelOf := make(map[int32]int, len(impacted))
	for gi, g := range groups {
		if len(g.Flows) == 0 {
			t.Fatalf("seed %d: empty group at index %d", seed, gi)
		}
		for _, f := range g.Flows {
			if !impacted[f] {
				t.Fatalf("seed %d: group %d contains non-impacted flow %d", seed, gi, f)
			}
			if prev, dup := groupOf[f]; dup {
				t.Fatalf("seed %d: flow %d in groups %d and %d", seed, f, prev, gi)
			}
			groupOf[f] = gi
			levelOf[f] = g.Level
		}
	}
	if len(groupOf) != len(impacted) {
		t.Fatalf("seed %d: %d flows grouped, %d impacted", seed, len(groupOf), len(impacted))
	}

	// Property 1: condensed edges go strictly downhill in level. For every
	// flow edge u->v inside the impacted set whose endpoints are in
	// different groups, level(u) < level(v).
	for u := range impacted {
		fg.OutFlows(u, func(v int32) {
			if !impacted[v] || groupOf[u] == groupOf[v] {
				return
			}
			if levelOf[u] >= levelOf[v] {
				t.Fatalf("seed %d: condensed edge %d->%d has level(%d)=%d >= level(%d)=%d",
					seed, u, v, u, levelOf[u], v, levelOf[v])
			}
		})
	}

	// Property 2: mutual reachability (within the impacted set) exactly
	// characterizes group co-membership — cyclic flow sets merge into one
	// Group, and flows not on a common cycle never share one.
	flows := make([]int32, 0, len(impacted))
	for f := range impacted {
		flows = append(flows, f)
	}
	for i, a := range flows {
		for _, b := range flows[i+1:] {
			same := groupOf[a] == groupOf[b]
			want := sameSCC(fg, impacted, a, b)
			if same != want {
				t.Fatalf("seed %d: flows %d,%d sameGroup=%v mutuallyReachable=%v",
					seed, a, b, same, want)
			}
		}
	}
}

func TestSchedulePropertiesRandom(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		n := 2 + r.Intn(24)
		density := 0.05 + r.Float64()*0.3 // sparse to cyclic-heavy
		fg := randFlowGraph(r, n, density)

		// Random impacted subset (at least one flow).
		impacted := make(map[int32]bool)
		for f := 0; f < n; f++ {
			if r.Float64() < 0.6 {
				impacted[int32(f)] = true
			}
		}
		if len(impacted) == 0 {
			impacted[int32(r.Intn(n))] = true
		}
		checkScheduleProperties(t, fg, impacted, seed)
	}
}

// TestSchedulePropertiesDenseCyclic stresses the merge path: high density
// makes most of the graph one big SCC, so the schedule should collapse to
// very few groups while keeping the level invariant on the remainder.
func TestSchedulePropertiesDenseCyclic(t *testing.T) {
	for seed := uint64(100); seed < 110; seed++ {
		r := rng.New(seed)
		n := 6 + r.Intn(10)
		fg := randFlowGraph(r, n, 0.5)
		impacted := make(map[int32]bool, n)
		for f := 0; f < n; f++ {
			impacted[int32(f)] = true
		}
		checkScheduleProperties(t, fg, impacted, seed)
	}
}

// TestScheduleKnownCycle is a deterministic anchor: a 3-cycle feeding a
// chain must give exactly {cycle}@0 -> {3}@1 -> {4}@2.
func TestScheduleKnownCycle(t *testing.T) {
	fg := newFlowGraphN(5)
	add := func(u, v int32) { fg.bumpFlowEdge(u, v, 1) }
	add(0, 1)
	add(1, 2)
	add(2, 0) // cycle {0,1,2}
	add(2, 3)
	add(3, 4)
	impacted := map[int32]bool{0: true, 1: true, 2: true, 3: true, 4: true}
	groups := Schedule(fg, []int32{0, 1, 2, 3, 4})
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3: %+v", len(groups), groups)
	}
	if len(groups[0].Flows) != 3 || groups[0].Level != 0 {
		t.Fatalf("cycle group = %+v, want flows {0,1,2} at level 0", groups[0])
	}
	if groups[1].Level != 1 || groups[1].Flows[0] != 3 {
		t.Fatalf("group 1 = %+v, want flow 3 at level 1", groups[1])
	}
	if groups[2].Level != 2 || groups[2].Flows[0] != 4 {
		t.Fatalf("group 2 = %+v, want flow 4 at level 2", groups[2])
	}
	checkScheduleProperties(t, fg, impacted, 0)
}
