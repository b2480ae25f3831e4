package engine

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// topKReference is the full-sort TopK: every vertex sorted best first, ties
// by vertex id, cut to k.
func topKReference(vals []float64, k int, better func(a, b float64) bool) []VertexValue {
	if k <= 0 {
		return nil
	}
	out := make([]VertexValue, 0, len(vals))
	for v, val := range vals {
		out = append(out, VertexValue{V: graph.VertexID(v), Val: val})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Val != out[j].Val {
			return better(out[i].Val, out[j].Val)
		}
		return out[i].V < out[j].V
	})
	return out[:min(k, len(out))]
}

// stateOf builds a published State holding vals, parents -1.
func stateOf(vals []float64) *State {
	var p publisher
	p.initPublisher(len(vals))
	return p.publish(0, func(c *chunk, lo, hi int) {
		copy(c.vals[:], vals[lo:hi])
		for i := range c.parent {
			c.parent[i] = -1
		}
	})
}

// TestTopKMatchesFullSort: the heap selection returns exactly the full
// sort's prefix, under both orderings, with heavy ties (values drawn from a
// handful, ±Inf included), k <= 0, k = 1, k = N and k > N — for the flat
// snapshot and for the chunked State over the same values, shuffled and
// sorted (sorted values give chunks narrow bounds, so State.TopK skips
// chunks, and ties straddle chunk edges).
func TestTopKMatchesFullSort(t *testing.T) {
	orders := map[string]func(a, b float64) bool{
		"smaller": func(a, b float64) bool { return a < b },
		"larger":  func(a, b float64) bool { return a > b },
	}
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		n := r.Intn(300)
		distinct := 1 + r.Intn(8)
		vals := make([]float64, n)
		for i := range vals {
			switch d := r.Intn(distinct + 2); d {
			case distinct:
				vals[i] = math.Inf(1)
			case distinct + 1:
				vals[i] = math.Inf(-1)
			default:
				vals[i] = float64(d)
			}
		}
		sorted := slices.Clone(vals)
		slices.Sort(sorted)
		type topK func(k int, better func(a, b float64) bool) []VertexValue
		subjects := []struct {
			name string
			vals []float64
			topK topK
		}{
			{"flat", vals, (&StateSnapshot{Vals: vals}).TopK},
			{"state", vals, stateOf(vals).TopK},
			{"state-sorted", sorted, stateOf(sorted).TopK},
		}
		for _, sub := range subjects {
			for name, better := range orders {
				for _, k := range []int{-3, 0, 1, 2, 7, n / 2, n - 1, n, n + 5} {
					got, want := sub.topK(k, better), topKReference(sub.vals, k, better)
					if len(got) != len(want) {
						t.Fatalf("seed %d %s %s n=%d k=%d: %d entries, want %d", seed, sub.name, name, n, k, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed %d %s %s n=%d k=%d: entry %d = %+v, want %+v", seed, sub.name, name, n, k, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
