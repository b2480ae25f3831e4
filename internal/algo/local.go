package algo

import (
	"repro/internal/graph"
)

// Local is the contract for neighborhood-local algorithms: a vertex's value
// is a function of its immediate neighborhood (and, optionally, its
// neighbors' values), recomputable in place. Unlike the Selective family
// these are non-monotonic under streaming — a deletion can raise one
// vertex's value and lower another's — so the engine cannot rely on
// refinement floors. Instead each algorithm declares how a batch decomposes
// into sequentially converged steps (Plan) and which vertices a step
// invalidates (Seed); the engine recomputes from those seeds to quiescence.
//
// Determinism contract: Recompute must be a pure function of the graph and
// the value vector, and the seeded fixpoint must be unique (for KCore this
// is the greatest-fixpoint property of the H-index operator; TriangleCount
// does not read neighbor values at all). That is what lets the consistency
// oracle demand bit-exact equality across worker counts.
type Local interface {
	// Name identifies the algorithm ("triangle", "kCore").
	Name() string
	// Symmetric reports whether the algorithm needs undirected semantics
	// (both current algorithms do). The initial graph must then hold each
	// edge in both directions and batches are symmetrized by the engine.
	Symmetric() bool
	// Better orders values for top-k queries (true when a ranks before b).
	Better(a, b float64) bool
	// UsesNeighborVals reports whether Recompute reads neighbor values. If
	// true, the engine re-notifies a vertex's neighbors whenever its value
	// changes during convergence.
	UsesNeighborVals() bool
	// Recompute re-derives v's value from its current neighborhood. cur is
	// v's present value; val reads any vertex's present value. The engine
	// calls this concurrently from workers — it must not write anything.
	Recompute(g *graph.Streaming, v graph.VertexID, cur float64, val func(graph.VertexID) float64) float64
	// Plan splits one batch into steps the engine applies and converges
	// sequentially. The batch arrives exactly as it will be applied: for
	// symmetric algorithms it is already canonicalized (last update per
	// undirected pair wins) and mirrored, with the two directions of a pair
	// adjacent. Steps must partition the batch's updates.
	Plan(b graph.Batch) []graph.Batch
	// Seed runs after one step's updates are applied to g (and before
	// convergence): it inspects current values with get, may reset some
	// with set, and emits every vertex whose value must be re-verified.
	// It runs single-threaded in the engine's manager.
	Seed(g *graph.Streaming, applied []graph.Update,
		get func(graph.VertexID) float64,
		set func(graph.VertexID, float64),
		emit func(graph.VertexID))
	// Solve computes the from-scratch answer — the oracle reference and
	// the engine's initial state.
	Solve(g *graph.Streaming) []float64
}

// TriangleCount maintains the number of triangles through each vertex.
// Deletions decrease counts and additions increase them, with no
// monotone refinement floor either way — the canonical non-monotonic
// streaming workload (Besta et al.'s survey, PAPERS.md).
type TriangleCount struct{}

func (TriangleCount) Name() string             { return "triangle" }
func (TriangleCount) Symmetric() bool          { return true }
func (TriangleCount) Better(a, b float64) bool { return a > b }
func (TriangleCount) UsesNeighborVals() bool   { return false }

// Recompute counts v's triangles by neighbor-list intersection: for each
// neighbor u, walk the smaller of the two adjacency lists probing the other
// through the hub-indexed HasEdge. Each triangle {v,u,w} is found once via
// u and once via w, hence the halving.
func (TriangleCount) Recompute(g *graph.Streaming, v graph.VertexID, _ float64, _ func(graph.VertexID) float64) float64 {
	t := 0
	for _, h := range g.Out(v) {
		u := h.To
		if u == v {
			continue
		}
		a, b := v, u
		if g.OutDegree(b) < g.OutDegree(a) {
			a, b = b, a
		}
		for _, h2 := range g.Out(a) {
			w := h2.To
			if w == v || w == u {
				continue
			}
			if _, ok := g.HasEdge(b, w); ok {
				t++
			}
		}
	}
	return float64(t / 2)
}

// Plan keeps the whole batch as one step: triangle counts depend only on
// the final topology, not on the order updates land.
func (TriangleCount) Plan(b graph.Batch) []graph.Batch { return []graph.Batch{b} }

// Seed marks every vertex whose count the step can change: the endpoints of
// each applied update plus their common neighbors in the post-step graph.
// A triangle destroyed together with one of its other edges is still
// covered — that edge's endpoints are themselves seeds.
func (TriangleCount) Seed(g *graph.Streaming, applied []graph.Update,
	_ func(graph.VertexID) float64, _ func(graph.VertexID, float64),
	emit func(graph.VertexID)) {
	for _, up := range applied {
		u, v := up.Src, up.Dst
		emit(u)
		emit(v)
		a, b := u, v
		if g.OutDegree(b) < g.OutDegree(a) {
			a, b = b, a
		}
		for _, h := range g.Out(a) {
			w := h.To
			if w == u || w == v {
				continue
			}
			if _, ok := g.HasEdge(b, w); ok {
				emit(w)
			}
		}
	}
}

// Solve counts triangles from scratch by enumerating neighbor pairs — a
// deliberately different code path from Recompute, so the two cannot share
// a bug.
func SolveTriangles(g *graph.Streaming) []float64 {
	n := g.NumVertices()
	out := make([]float64, n)
	var ns []graph.VertexID
	for v := 0; v < n; v++ {
		ns = ns[:0]
		for _, h := range g.Out(graph.VertexID(v)) {
			if h.To != graph.VertexID(v) {
				ns = append(ns, h.To)
			}
		}
		t := 0
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				if _, ok := g.HasEdge(ns[i], ns[j]); ok {
					t++
				}
			}
		}
		out[v] = float64(t)
	}
	return out
}

func (TriangleCount) Solve(g *graph.Streaming) []float64 { return SolveTriangles(g) }

// KCore maintains every vertex's core number: the largest k such that the
// vertex belongs to a subgraph where every member has at least k neighbors
// inside it. Deletions lower core numbers and additions raise them, and a
// single edge can shift values arbitrarily far from either endpoint —
// non-monotonic in both directions.
//
// The incremental scheme rests on two classical results:
//
//   - Coreness is the greatest fixpoint of the capped H-index operator
//     T(x)(v) = min(deg(v), H{x(u) : u ∈ N(v)}) (Lü et al., "The H-index
//     of a network node"). Recompute evaluates min(cur, T): capping at the
//     current value makes chaotic asynchronous iteration a monotone
//     descent, and any descent started from a pointwise super-solution of
//     the true coreness converges to it exactly, in any execution order.
//   - On a single edge insertion with k = min(core(u), core(v)), only the
//     subcore — vertices with core exactly k connected to the endpoints
//     through vertices of core k — can change, each by at most one
//     (Sariyüce et al., streaming k-core decomposition).
//
// Hence Plan converges all deletions first (current values are already a
// super-solution of the shrunken graph) and then each insertion as its own
// step, where Seed raises the subcore to k+1 — a super-solution again — and
// lets the descent settle.
type KCore struct{}

func (KCore) Name() string             { return "kCore" }
func (KCore) Symmetric() bool          { return true }
func (KCore) Better(a, b float64) bool { return a > b }
func (KCore) UsesNeighborVals() bool   { return true }

// Recompute evaluates min(cur, deg(v), H-index of neighbor values), the
// monotone-descent form of the coreness operator. Values are small integers
// stored exactly in float64, so counting sort over [0, min(cur,deg)] finds
// the H-index in one pass.
func (KCore) Recompute(g *graph.Streaming, v graph.VertexID, cur float64, val func(graph.VertexID) float64) float64 {
	out := g.Out(v)
	deg := 0
	for _, h := range out {
		if h.To != v {
			deg++
		}
	}
	bound := int(cur)
	if deg < bound {
		bound = deg
	}
	if bound <= 0 {
		return 0
	}
	counts := make([]int, bound+1)
	for _, h := range out {
		if h.To == v {
			continue
		}
		c := int(val(h.To))
		if c > bound {
			c = bound
		}
		if c < 0 {
			c = 0
		}
		counts[c]++
	}
	cum := 0
	for k := bound; k >= 1; k-- {
		cum += counts[k]
		if cum >= k {
			return float64(k)
		}
	}
	return 0
}

// Plan groups the step sequence: all deletions first (one step — the old
// values over-approximate the shrunken graph's coreness everywhere), then
// each inserted undirected edge alone (the subcore theorem is per-edge).
// Mirrored directions of one pair stay in the same step.
func (KCore) Plan(b graph.Batch) []graph.Batch {
	var dels graph.Batch
	var steps []graph.Batch
	for i := 0; i < len(b); {
		j := i + 1
		if j < len(b) && b[j].Src == b[i].Dst && b[j].Dst == b[i].Src && b[j].Del == b[i].Del {
			j++ // the mirror of one undirected update
		}
		if b[i].Del {
			dels = append(dels, b[i:j]...)
		} else {
			steps = append(steps, b[i:j])
		}
		i = j
	}
	if len(dels) > 0 {
		steps = append([]graph.Batch{dels}, steps...)
	}
	return steps
}

// Seed invalidates what one step can change. For a deletion step the old
// values are already a super-solution, so only the endpoints need
// re-verification (the descent spreads through notifications). For an
// insertion step it raises the subcore of the lower endpoint to k+1 — the
// tight super-solution — and emits it for descent.
func (KCore) Seed(g *graph.Streaming, applied []graph.Update,
	get func(graph.VertexID) float64,
	set func(graph.VertexID, float64),
	emit func(graph.VertexID)) {
	if len(applied) == 0 {
		return
	}
	if applied[0].Del {
		for _, up := range applied {
			emit(up.Src)
			emit(up.Dst)
		}
		return
	}
	// Single inserted undirected edge (possibly both directions applied).
	u, v := applied[0].Src, applied[0].Dst
	k := get(u)
	if kv := get(v); kv < k {
		k = kv
	}
	ki := int(k)
	var queue []graph.VertexID
	visited := map[graph.VertexID]bool{}
	for _, r := range []graph.VertexID{u, v} {
		if int(get(r)) == ki && !visited[r] {
			visited[r] = true
			queue = append(queue, r)
		}
	}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, h := range g.Out(x) {
			w := h.To
			if w == x || visited[w] {
				continue
			}
			if int(get(w)) == ki {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	for _, x := range queue {
		set(x, float64(ki+1))
		emit(x)
	}
}

// SolveKCore computes core numbers from scratch with Batagelj–Zaveršnik
// bucket peeling — O(V+E) and independent of the H-index formulation the
// incremental path uses.
func SolveKCore(g *graph.Streaming) []float64 {
	n := g.NumVertices()
	deg := make([]int, n)
	md := 0
	for v := 0; v < n; v++ {
		for _, h := range g.Out(graph.VertexID(v)) {
			if h.To != graph.VertexID(v) {
				deg[v]++
			}
		}
		if deg[v] > md {
			md = deg[v]
		}
	}
	// bin[d] = index in vert where degree-d vertices start.
	bin := make([]int, md+2)
	for _, d := range deg {
		bin[d]++
	}
	start := 0
	for d := 0; d <= md; d++ {
		c := bin[d]
		bin[d] = start
		start += c
	}
	vert := make([]int, n)
	pos := make([]int, n)
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = v
		bin[deg[v]]++
	}
	for d := md; d >= 1; d-- {
		bin[d] = bin[d-1]
	}
	if md >= 0 {
		bin[0] = 0
	}
	cur := append([]int(nil), deg...)
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, h := range g.Out(graph.VertexID(v)) {
			u := int(h.To)
			if u == v || cur[u] <= cur[v] {
				continue
			}
			du, pu := cur[u], pos[u]
			pw := bin[du]
			w := vert[pw]
			if u != w {
				pos[u], vert[pu] = pw, w
				pos[w], vert[pw] = pu, u
			}
			bin[du]++
			cur[u]--
		}
	}
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		out[v] = float64(cur[v])
	}
	return out
}

func (KCore) Solve(g *graph.Streaming) []float64 { return SolveKCore(g) }
