package engine

import (
	"math"
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

// TestTopKMatchesFullSort: the heap selection returns exactly the full
// sort's prefix, under both orderings, with heavy ties (values drawn from a
// handful, +Inf included), k <= 0, k = 1, k = N and k > N.
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
			if d := r.Intn(distinct + 1); d == distinct {
				vals[i] = math.Inf(1)
			} else {
				vals[i] = float64(d)
			}
		}
		s := &StateSnapshot{Vals: vals}
		for name, better := range orders {
			for _, k := range []int{-3, 0, 1, 2, 7, n / 2, n - 1, n, n + 5} {
				got, want := s.TopK(k, better), topKReference(vals, k, better)
				if len(got) != len(want) {
					t.Fatalf("seed %d %s n=%d k=%d: %d entries, want %d", seed, name, n, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d %s n=%d k=%d: entry %d = %+v, want %+v", seed, name, n, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}
