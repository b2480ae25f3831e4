// Package dflow turns D-trees into dependency-flows and schedules them.
// It implements the paper's Dependency Management module (§III, §V-A):
// flows are extracted from the forward-triangle D-tree forest (space), and
// their execution order is constrained by the cross-flow edges the backward
// triangle induces (time). Cyclically dependent flows are merged into one
// scheduling unit, exactly as §V-A prescribes for flows that form a cycle.
package dflow

import (
	"repro/internal/etree"
	"repro/internal/graph"
)

// Partition assigns every vertex to a dependency-flow. Flows are packed in
// D-tree DFS order so tree-adjacent vertices are flow-adjacent, which is
// what the specialized layout (internal/layout) exploits.
type Partition struct {
	// FlowOf maps a vertex to its flow.
	FlowOf []int32
	// Flows lists each flow's member vertices in pack order.
	Flows [][]uint32
	// Cap is the flow size cap used at build time.
	Cap int
}

// DefaultCap is the default flow size cap: small enough that one flow's
// vertex values and edge pointers fit comfortably in a private cache,
// large enough to amortize scheduling.
const DefaultCap = 1024

// NewPartition extracts dependency-flows from a D-tree forest. Hyper
// vertices are kept together when possible; hyper vertices and trees larger
// than cap are divided into sub-flows (the paper's §V-A "divide the
// oversized dependency-flow"), whose mutual ordering the scheduler
// preserves through the flow graph.
func NewPartition(f *etree.Forest, cap int) *Partition {
	if cap <= 0 {
		cap = DefaultCap
	}
	n := f.N()
	p := &Partition{
		FlowOf: make([]int32, n),
		Cap:    cap,
	}
	for i := range p.FlowOf {
		p.FlowOf[i] = -1
	}

	// Group vertices by hyper representative, preserving ID order inside
	// each hyper vertex.
	members := make(map[int32][]uint32)
	for v := 0; v < n; v++ {
		r := f.Rep(graph.VertexID(v))
		members[r] = append(members[r], uint32(v))
	}

	// Condensed tree structure over hyper nodes: each hyper node gets at
	// most one chosen parent (the hyper of the smallest member link that
	// leaves the node). Children lists drive the packing DFS.
	chosenParent := make(map[int32]int32)
	children := make(map[int32][]int32)
	for v := 0; v < n; v++ {
		l := f.Link(graph.VertexID(v))
		if l == -1 {
			continue
		}
		r, lr := f.Rep(graph.VertexID(v)), f.Rep(graph.VertexID(l))
		if r == lr {
			continue
		}
		if _, ok := chosenParent[r]; !ok {
			chosenParent[r] = lr
			children[lr] = append(children[lr], r)
		}
	}

	visited := make(map[int32]bool, len(members))
	var cur []uint32
	flush := func() {
		if len(cur) > 0 {
			p.Flows = append(p.Flows, cur)
			cur = nil
		}
	}
	packNode := func(r int32) {
		for _, v := range members[r] {
			if len(cur) >= cap {
				flush()
			}
			cur = append(cur, v)
		}
	}
	// Iterative DFS over the condensed tree: pack the node, then descend
	// into children so a root and its subtree stay flow-contiguous.
	dfs := func(root int32) {
		stack := []int32{root}
		for len(stack) > 0 {
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if visited[r] {
				continue
			}
			visited[r] = true
			packNode(r)
			stack = append(stack, children[r]...)
		}
	}

	// Roots first (hyper nodes with no chosen parent); the chosen-parent
	// links can form cycles across hyper nodes, so sweep leftovers after.
	// Small trees share flows: PROPERTY 1 guarantees sibling subtrees are
	// independent, so colocating them is safe, and it avoids degenerate
	// dust flows whose boundary traffic would dominate scheduling.
	for v := 0; v < n; v++ {
		r := f.Rep(graph.VertexID(v))
		if _, hasParent := chosenParent[r]; !hasParent && !visited[r] {
			dfs(r)
		}
	}
	for v := 0; v < n; v++ {
		r := f.Rep(graph.VertexID(v))
		if !visited[r] {
			dfs(r)
		}
	}
	flush()

	for fi, flow := range p.Flows {
		for _, v := range flow {
			p.FlowOf[v] = int32(fi)
		}
	}
	return p
}

// NumFlows returns the number of flows.
func (p *Partition) NumFlows() int { return len(p.Flows) }

// Flow returns the flow id of v.
func (p *Partition) Flow(v graph.VertexID) int32 { return p.FlowOf[v] }

// Members returns the member vertices of flow f in pack order.
func (p *Partition) Members(f int32) []uint32 { return p.Flows[f] }

// Validate checks that flows partition the vertex set exactly and that no
// flow exceeds the cap: both packers flush at the cap, splitting oversized
// hyper vertices and subtrees. O(N).
func (p *Partition) Validate() error {
	seen := make([]bool, len(p.FlowOf))
	for fi, flow := range p.Flows {
		if len(flow) > p.Cap {
			return errOverCap(int32(fi), len(flow), p.Cap)
		}
		for _, v := range flow {
			if seen[v] {
				return errDuplicate(v)
			}
			seen[v] = true
			if p.FlowOf[v] != int32(fi) {
				return errFlowOf(v, p.FlowOf[v], int32(fi))
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			return errUnassigned(uint32(v))
		}
	}
	return nil
}
