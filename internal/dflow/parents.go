package dflow

// NewPartitionFromParents extracts dependency-flows from a key-edge
// dependence forest given as a parent array (parent[v] == -1 for roots).
// This is the selective-algorithm path of §IV-B: key edges give every
// vertex at most one parent, so the D-tree is a plain forest and flows are
// packed subtrees: one DFS over the roots in ascending id fills each flow
// up to the cap, so a subtree larger than the cap spans consecutive flows
// and small independent subtrees (PROPERTY 1) share one.
//
// The result is a pure function of (parent, cap): the coordinator and every
// worker of the distributed runtime derive it independently. The function
// assumes the parent array is acyclic (guaranteed for monotonic algorithms;
// see internal/etree.KeyForest).
func NewPartitionFromParents(parent []int32, cap int) *Partition {
	if cap <= 0 {
		cap = DefaultCap
	}
	n := len(parent)
	p := &Partition{FlowOf: make([]int32, n), Cap: cap}

	// Children as a counting-sort CSR in place of one slice per vertex.
	// Bucket 0 holds the roots and bucket v+1 the children of v, each in
	// ascending id: count into ptr[bucket+1], prefix-sum so ptr[bucket] is
	// where the bucket starts, fill with ptr[bucket] as its cursor. The
	// fill leaves ptr[bucket] at the bucket's end, which is the next one's
	// start: v's children are then kids[ptr[v]:ptr[v+1]].
	ptr := make([]int32, n+2)
	for _, pa := range parent {
		ptr[pa+2]++
	}
	for i := 2; i < len(ptr); i++ {
		ptr[i] += ptr[i-1]
	}
	kids := make([]int32, n)
	for v, pa := range parent {
		kids[ptr[pa+1]] = int32(v)
		ptr[pa+1]++
	}
	roots := kids[:ptr[0]]

	// DFS pack each root's subtree into one backing array that the flows
	// slice; small subtrees share flows (they are independent by
	// construction, and dust-sized flows would drown the scheduler in
	// boundary traffic).
	pack := make([]uint32, 0, n)
	start := 0
	flush := func() {
		if len(pack) > start {
			p.Flows = append(p.Flows, pack[start:len(pack):len(pack)])
			start = len(pack)
		}
	}
	stack := make([]int32, 0, 64)
	for _, r := range roots {
		stack = append(stack[:0], r)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if len(pack)-start >= cap {
				flush()
			}
			p.FlowOf[v] = int32(len(p.Flows))
			pack = append(pack, uint32(v))
			stack = append(stack, kids[ptr[v]:ptr[v+1]]...)
		}
	}
	flush()
	return p
}
