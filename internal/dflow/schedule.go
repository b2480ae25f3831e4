package dflow

import "sort"

// Group is one scheduling unit: either a single flow or a set of flows that
// form a dependency cycle and must execute as a whole (paper §V-A: "we
// merge such dependency-flows and consider them as a whole
// dependency-flow"). Level is the unit's depth in the condensed DAG; units
// at the same level are mutually independent and run concurrently.
type Group struct {
	Flows []int32
	Level int
}

// Schedule computes the space-time dependent co-scheduling order for the
// impacted flows: Tarjan SCC condensation of the flow digraph restricted to
// the impacted set, then Kahn levels on the condensed DAG. Groups are
// returned sorted by level (ties broken by smallest flow id) so workers can
// consume them in priority order.
//
// No engine calls it: every measured batch had one level, so the schedule
// was flow-id order, which the engines now take directly (EXPERIMENTS.md,
// "Space-time order: the bound, and its removal"). It stays only for the
// repository benchmark's isolated probes until the benchmark drops
// dflow.schedule_us_p50, dflow.units_per_batch and dflow.levels_per_batch.
//
// impacted is a list of flow ids (duplicates tolerated), such as the member
// slice of an epoch-stamped dense set.
func Schedule(fg *FlowGraph, impacted []int32) []Group {
	if len(impacted) == 0 {
		return nil
	}
	// Dense re-indexing of the impacted flows for the SCC pass.
	ids := append([]int32(nil), impacted...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	uniq := ids[:1]
	for _, f := range ids[1:] {
		if f != uniq[len(uniq)-1] {
			uniq = append(uniq, f)
		}
	}
	ids = uniq
	index := make(map[int32]int32, len(ids))
	for i, f := range ids {
		index[f] = int32(i)
	}
	n := len(ids)
	adj := make([][]int32, n)
	for i, f := range ids {
		fg.OutFlows(f, func(g int32) {
			if j, ok := index[g]; ok {
				adj[i] = append(adj[i], j)
			}
		})
		sort.Slice(adj[i], func(a, b int) bool { return adj[i][a] < adj[i][b] })
	}

	comp := tarjanSCC(n, adj)

	// Condensed DAG edges + in-degrees.
	numComp := 0
	for _, c := range comp {
		if int(c)+1 > numComp {
			numComp = int(c) + 1
		}
	}
	compOut := make([]map[int32]bool, numComp)
	indeg := make([]int, numComp)
	for u := 0; u < n; u++ {
		cu := comp[u]
		for _, v := range adj[u] {
			cv := comp[v]
			if cu == cv {
				continue
			}
			if compOut[cu] == nil {
				compOut[cu] = make(map[int32]bool)
			}
			if !compOut[cu][cv] {
				compOut[cu][cv] = true
				indeg[cv]++
			}
		}
	}

	// Kahn levels.
	level := make([]int, numComp)
	queue := make([]int32, 0, numComp)
	for c := 0; c < numComp; c++ {
		if indeg[c] == 0 {
			queue = append(queue, int32(c))
		}
	}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for d := range compOut[c] {
			if l := level[c] + 1; l > level[d] {
				level[d] = l
			}
			if indeg[d]--; indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}

	// Collect members per component.
	groups := make([]Group, numComp)
	for c := range groups {
		groups[c].Level = level[c]
	}
	for u := 0; u < n; u++ {
		c := comp[u]
		groups[c].Flows = append(groups[c].Flows, ids[u])
	}
	for c := range groups {
		sort.Slice(groups[c].Flows, func(i, j int) bool { return groups[c].Flows[i] < groups[c].Flows[j] })
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].Level != groups[j].Level {
			return groups[i].Level < groups[j].Level
		}
		return groups[i].Flows[0] < groups[j].Flows[0]
	})
	return groups
}

// tarjanSCC returns the strongly-connected-component id of each node for a
// digraph in adjacency-list form, using the iterative Tarjan algorithm
// (recursion-free so million-flow graphs cannot overflow the stack).
func tarjanSCC(n int, adj [][]int32) []int32 {
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]int32, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var (
		counter int32
		nComp   int32
		stack   []int32
	)
	type frame struct {
		v    int32
		next int // next child index to visit
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{v: int32(root)}}
		index[int32(root)] = counter
		low[int32(root)] = counter
		counter++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.next < len(adj[f.v]) {
				w := adj[f.v][f.next]
				f.next++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] {
					if index[w] < low[f.v] {
						low[f.v] = index[w]
					}
				}
				continue
			}
			// Post-order: close the frame.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
		}
	}
	return comp
}
