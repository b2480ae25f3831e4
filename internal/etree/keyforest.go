package etree

import "fmt"

// KeyForest is the dependence forest tracked by selective (monotonic)
// algorithms: parent(v) is the source of v's *key edge* — the in-edge that
// determined v's current value, recorded during computation exactly as
// KickStarter does (§IV-B: "we track key edges to generate D-trees for
// selective algorithms"). Because every vertex has at most one key edge,
// the D-tree degenerates to an elimination-tree-like forest with no hyper
// vertices, and the trim set of an edge deletion is precisely the subtree
// of the deleted edge's target.
//
// The structure maintains a children index so subtree traversal costs
// O(subtree) tree nodes — no graph-edge traversal — which is what makes
// identifying impacted vertices before refinement cheap (paper §II-C,
// challenge ❶). SetParent is O(1).
//
// KeyForest is not safe for concurrent mutation; engines shard ownership so
// each vertex's parent is written by one worker, and reconcile through
// per-flow message queues.
type KeyForest struct {
	parent   []int32
	children [][]uint32
	posInPar []int32 // index of v inside children[parent[v]]
}

// NewKeyForest returns a forest of n parentless vertices.
func NewKeyForest(n int) *KeyForest {
	f := &KeyForest{
		parent:   make([]int32, n),
		children: make([][]uint32, n),
		posInPar: make([]int32, n),
	}
	for i := range f.parent {
		f.parent[i] = -1
		f.posInPar[i] = -1
	}
	return f
}

// Len returns the number of vertices.
func (f *KeyForest) Len() int { return len(f.parent) }

// Parent returns v's key-edge source, or -1.
func (f *KeyForest) Parent(v uint32) int32 { return f.parent[v] }

// NumChildren returns the number of key-edge children of v.
func (f *KeyForest) NumChildren(v uint32) int { return len(f.children[v]) }

// SetParent rewires v under p (p == -1 detaches v). O(1) via swap-removal
// from the old parent's child list.
func (f *KeyForest) SetParent(v uint32, p int32) {
	old := f.parent[v]
	if old == p {
		return
	}
	if old != -1 {
		cs := f.children[old]
		i := f.posInPar[v]
		last := len(cs) - 1
		cs[i] = cs[last]
		f.posInPar[cs[i]] = i
		f.children[old] = cs[:last]
	}
	f.parent[v] = p
	if p == -1 {
		f.posInPar[v] = -1
		return
	}
	f.posInPar[v] = int32(len(f.children[p]))
	f.children[p] = append(f.children[p], v)
}

// Subtree calls visit for every vertex in v's subtree, v included, in DFS
// order. visit returning false prunes that vertex's descendants.
func (f *KeyForest) Subtree(v uint32, visit func(uint32) bool) {
	stack := []uint32{v}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !visit(x) {
			continue
		}
		stack = append(stack, f.children[x]...)
	}
}

// SubtreeSize returns |subtree(v)|.
func (f *KeyForest) SubtreeSize(v uint32) int {
	n := 0
	f.Subtree(v, func(uint32) bool { n++; return true })
	return n
}

// BulkLoad replaces the whole forest with the given parent array (-1 for
// roots) and rebuilds the children index in O(N). Engines call it when
// they build or restore their state; per batch they Sync instead.
func (f *KeyForest) BulkLoad(parent []int32) {
	if len(parent) != len(f.parent) {
		panic("etree: BulkLoad length mismatch")
	}
	for v := range f.parent {
		f.children[v] = f.children[v][:0]
	}
	copy(f.parent, parent)
	for v, p := range f.parent {
		if p == -1 {
			f.posInPar[v] = -1
			continue
		}
		f.posInPar[v] = int32(len(f.children[p]))
		f.children[p] = append(f.children[p], uint32(v))
	}
}

// Sync brings the forest to the given parent array (-1 for roots) by
// re-linking only the vertices whose parent differs: one sequential compare
// pass plus an O(1) SetParent per re-parented vertex. Engines call it at
// the start of each batch with the key edges recorded during the previous
// batch's computation (§IV-B: "We record these key edges during the runtime
// ... and then use them for the next batch updates"), which re-parents a
// small fraction of the vertices. The children index then holds the same
// sets BulkLoad would build, but each list's order depends on the forest's
// history (SetParent swap-removes and appends), so a forest restored with
// BulkLoad lists the same children in another order. Nothing may depend on
// that order: Subtree's sibling order is unspecified. (Which of two equal
// candidates becomes a key edge can differ between an uninterrupted and a
// restored engine for other reasons too, so only values, not parents, are
// pinned across recovery.)
func (f *KeyForest) Sync(parent []int32) {
	if len(parent) != len(f.parent) {
		panic("etree: Sync length mismatch")
	}
	have := f.parent[:len(parent)]
	for v, p := range parent {
		if have[v] != p {
			f.SetParent(uint32(v), p)
		}
	}
}

// DetachAll removes every parent link (used when an engine rebuilds state
// from scratch).
func (f *KeyForest) DetachAll() {
	for v := range f.parent {
		f.parent[v] = -1
		f.posInPar[v] = -1
		f.children[v] = f.children[v][:0]
	}
}

// Validate checks structural invariants: the children index matches the
// parent array and the forest is acyclic. O(N). Intended for tests.
func (f *KeyForest) Validate() error {
	for v, p := range f.parent {
		if p == -1 {
			if f.posInPar[v] != -1 {
				return fmt.Errorf("etree: root %d has child position %d", v, f.posInPar[v])
			}
			continue
		}
		if int(p) >= len(f.parent) {
			return fmt.Errorf("etree: vertex %d has out-of-range parent %d", v, p)
		}
		i := f.posInPar[v]
		if i < 0 || int(i) >= len(f.children[p]) || f.children[p][i] != uint32(v) {
			return fmt.Errorf("etree: children index broken for %d (parent %d pos %d)", v, p, i)
		}
	}
	// Acyclicity by pointer-jumping with a step bound.
	n := len(f.parent)
	for v := 0; v < n; v++ {
		x := int32(v)
		for steps := 0; x != -1; steps++ {
			if steps > n {
				return fmt.Errorf("etree: cycle through vertex %d", v)
			}
			x = f.parent[x]
		}
	}
	total := 0
	for _, cs := range f.children {
		total += len(cs)
	}
	withParent := 0
	for _, p := range f.parent {
		if p != -1 {
			withParent++
		}
	}
	if total != withParent {
		return fmt.Errorf("etree: children total %d != vertices with parents %d", total, withParent)
	}
	return nil
}
