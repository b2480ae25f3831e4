package dflow

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// referencePartitionFromParents is NewPartitionFromParents as it stood
// before the children lists became a counting-sort CSR: one slice per
// vertex, one slice per flow. The coordinator and every worker of the
// distributed runtime derive the partition independently and
// TestGoldenWorkCounters pins per-batch work to it, so the packing must not
// move by a single vertex.
func referencePartitionFromParents(parent []int32, cap int) *Partition {
	if cap <= 0 {
		cap = DefaultCap
	}
	n := len(parent)
	p := &Partition{FlowOf: make([]int32, n), Cap: cap}
	children := make([][]int32, n)
	var roots []int32
	for v, pa := range parent {
		if pa == -1 {
			roots = append(roots, int32(v))
		} else {
			children[pa] = append(children[pa], int32(v))
		}
	}
	var cur []uint32
	flush := func() {
		if len(cur) > 0 {
			p.Flows = append(p.Flows, cur)
			cur = nil
		}
	}
	var stack []int32
	for _, r := range roots {
		stack = append(stack[:0], r)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if len(cur) >= cap {
				flush()
			}
			cur = append(cur, uint32(v))
			stack = append(stack, children[v]...)
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

// randomForest draws a parent array over n vertices: each vertex is a root
// with probability rootP, else hangs under a uniformly chosen vertex that
// precedes it in a random relabelling (so ids carry no tree order).
func randomForest(r *rng.Xoshiro256, n int, rootP float64) []int32 {
	label := make([]int32, n)
	for i := range label {
		label[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		label[i], label[j] = label[j], label[i]
	}
	parent := make([]int32, n)
	for i := 0; i < n; i++ {
		if i == 0 || r.Float64() < rootP {
			parent[label[i]] = -1
		} else {
			parent[label[i]] = label[r.Intn(i)]
		}
	}
	return parent
}

func TestPartitionFromParentsGolden(t *testing.T) {
	// chain hangs every vertex under its predecessor (root 0) or, reversed,
	// under its successor (root n-1).
	chain := func(n int, reversed bool) []int32 {
		p := make([]int32, n)
		for v := range p {
			p[v] = int32(v) - 1
			if reversed {
				p[v] = int32(v) + 1
			}
		}
		if reversed {
			p[n-1] = -1
		}
		return p
	}
	star := func(n int, hub int32) []int32 {
		p := make([]int32, n)
		for v := range p {
			p[v] = hub
		}
		p[hub] = -1
		return p
	}
	allRoots := make([]int32, 300)
	for v := range allRoots {
		allRoots[v] = -1
	}
	forests := map[string][]int32{
		"empty":       {},
		"single":      {-1},
		"chain":       chain(500, false),
		"chain back":  chain(500, true),
		"star hub 0":  star(400, 0),
		"star hub 77": star(400, 77),
		"all roots":   allRoots,
	}
	r := rng.New(20260925)
	for i, rootP := range []float64{0, 0.01, 0.2, 0.9} {
		forests["random "+string(rune('a'+i))] = randomForest(r, 3000, rootP)
	}
	// Two fat subtrees under one root, each many caps large: odd vertices
	// grow under 1, even ones under 2.
	fat := []int32{-1, 0, 0}
	for v := 3; v < 2000; v++ {
		fat = append(fat, int32(1+(v-1)%2+2*r.Intn((v-1)/2)))
	}
	forests["cap-splitting subtrees"] = fat

	for name, parent := range forests {
		for _, cap := range []int{0, 1, 2, 7, 64, len(parent) + 1} {
			got := NewPartitionFromParents(parent, cap)
			want := referencePartitionFromParents(parent, cap)
			if got.Cap != want.Cap || !slices.Equal(got.FlowOf, want.FlowOf) {
				t.Fatalf("%s cap %d: FlowOf differs from the reference packing", name, cap)
			}
			if len(got.Flows) != len(want.Flows) {
				t.Fatalf("%s cap %d: %d flows, reference %d", name, cap, len(got.Flows), len(want.Flows))
			}
			for f := range want.Flows {
				if !slices.Equal(got.Flows[f], want.Flows[f]) {
					t.Fatalf("%s cap %d: flow %d = %v, reference %v", name, cap, f, got.Flows[f], want.Flows[f])
				}
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s cap %d: %v", name, cap, err)
			}
		}
	}
}

// TestPartitionFlowsDoNotAlias: the flows slice one backing array, so an
// append to one must not write into its neighbour.
func TestPartitionFlowsDoNotAlias(t *testing.T) {
	p := NewPartitionFromParents(randomForest(rng.New(5), 200, 0.1), 16)
	next := slices.Clone(p.Flows[1])
	_ = append(p.Flows[0], 999)
	if !slices.Equal(p.Flows[1], next) {
		t.Fatal("append to flow 0 overwrote flow 1")
	}
}
