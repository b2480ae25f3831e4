package engine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/graph"
)

// publishWorkload is a stream with deletions whose small batches leave
// most of the 2048 vertices' chunks untouched, so consecutive roots share
// chunks and a missed dirty mark shows as a stale shared chunk.
func publishWorkload(seed uint64) gen.Workload {
	cfg := gen.Config{Name: "publish", Kind: gen.RMAT, NumV: 2048, NumE: 8192,
		Seed: seed, A: 0.57, B: 0.19, C: 0.19, MaxWeight: 8}
	return gen.BuildWorkload(cfg.NumV, gen.Generate(cfg), gen.StreamConfig{
		InitialFraction: 0.6, DeleteRatio: 0.4, BatchSize: 12,
		NumBatches: 24, Seed: seed + 1,
	})
}

// publishedEngine is the publish surface the invariant test drives, with
// the engine's own flat reads as the reference.
type publishedEngine struct {
	process func(graph.Batch) BatchStats
	publish func(seq uint64) *State
	// flat reads every vertex's value and parent from the engine store.
	flat func() *StateSnapshot
}

func selectivePublished(g *graph.Streaming, alg algo.Selective, cfg Config) publishedEngine {
	e := NewSelective(g, alg, cfg)
	return publishedEngine{process: e.ProcessBatch, publish: e.Publish,
		flat: func() *StateSnapshot {
			p := make([]int32, g.NumVertices())
			for v := range p {
				p[v] = e.Parent(graph.VertexID(v))
			}
			return &StateSnapshot{Vals: e.Values(), Parent: p}
		}}
}

func localPublished(g *graph.Streaming, alg algo.Local, cfg Config) publishedEngine {
	e := NewLocal(g, alg, cfg)
	return publishedEngine{process: e.ProcessBatch, publish: e.Publish,
		flat: func() *StateSnapshot {
			p := make([]int32, g.NumVertices())
			for v := range p {
				p[v] = -1
			}
			return &StateSnapshot{Vals: e.Values(), Parent: p}
		}}
}

// refDiff is the O(N) reference delta: every vertex whose value differs.
func refDiff(cur, prev []float64) []VertexValue {
	var out []VertexValue
	for v, x := range cur {
		if x != prev[v] {
			out = append(out, VertexValue{V: graph.VertexID(v), Val: x})
		}
	}
	return out
}

func sameFlat(a, b *StateSnapshot) error {
	for v := range b.Vals {
		if a.Vals[v] != b.Vals[v] || a.Parent[v] != b.Parent[v] {
			return fmt.Errorf("vertex %d = (%v, %d), want (%v, %d)", v, a.Vals[v], a.Parent[v], b.Vals[v], b.Parent[v])
		}
	}
	return nil
}

// TestPublishInvariants drives SSSP, CC and k-core through a stream with
// deletions at 1, 3 and 4 workers and checks after every batch that
//   - the fresh root equals the engine's values and parents (a missed dirty
//     mark leaves a stale chunk shared),
//   - every root published earlier still reads exactly what it read when
//     it was published (no chunk a root reaches is ever written), and
//   - Diff against the previous root equals the full O(N) reference diff.
func TestPublishInvariants(t *testing.T) {
	engines := []struct {
		name string
		make func(g *graph.Streaming, cfg Config) publishedEngine
		sym  bool
	}{
		{"SSSP", func(g *graph.Streaming, cfg Config) publishedEngine {
			return selectivePublished(g, algo.SSSP{Src: 0}, cfg)
		}, false},
		{"CC", func(g *graph.Streaming, cfg Config) publishedEngine {
			return selectivePublished(g, algo.CC{}, cfg)
		}, true},
		{"KCore", func(g *graph.Streaming, cfg Config) publishedEngine {
			return localPublished(g, algo.KCore{}, cfg)
		}, true},
	}
	for _, eng := range engines {
		for _, workers := range []int{1, 3, 4} {
			t.Run(fmt.Sprintf("%s/W%d", eng.name, workers), func(t *testing.T) {
				w := publishWorkload(uint64(40 + workers))
				initial := w.Initial
				if eng.sym {
					initial = mirrored(initial)
				}
				e := eng.make(graph.FromEdges(w.NumV, initial), Config{Workers: workers, FlowCap: 64})

				var roots []*State
				var flats []*StateSnapshot // what each root read when published
				shared := 0
				for bi := 0; bi <= len(w.Batches); bi++ {
					if bi > 0 {
						e.process(w.Batches[bi-1])
					}
					st := e.publish(uint64(bi))
					want := e.flat()
					if st.Seq != uint64(bi) || st.NumVertices() != w.NumV {
						t.Fatalf("batch %d: root seq %d over %d vertices", bi, st.Seq, st.NumVertices())
					}
					if err := sameFlat(st.Flat(), want); err != nil {
						t.Fatalf("batch %d: publish disagrees with the engine: %v", bi, err)
					}
					for v := range want.Vals {
						val, parent, ok := st.Value(graph.VertexID(v))
						if !ok || val != want.Vals[v] || parent != want.Parent[v] {
							t.Fatalf("batch %d: Value(%d) = (%v, %d, %v)", bi, v, val, parent, ok)
						}
					}
					for i, old := range roots {
						if err := sameFlat(old.Flat(), flats[i]); err != nil {
							t.Fatalf("batch %d: root of batch %d changed after publish: %v", bi, i, err)
						}
					}
					if bi == 0 {
						if got := st.Diff(nil); len(got) != w.NumV {
							t.Fatalf("Diff(nil) lists %d vertices, want all %d", len(got), w.NumV)
						}
					} else {
						prev := roots[bi-1]
						got, ref := st.Diff(prev), refDiff(want.Vals, flats[bi-1].Vals)
						if !slices.Equal(got, ref) {
							t.Fatalf("batch %d: Diff = %v, reference %v", bi, got, ref)
						}
						for ci := range st.chunks {
							if st.chunks[ci] == prev.chunks[ci] {
								shared++
							}
						}
					}
					roots, flats = append(roots, st), append(flats, want)
				}
				if shared == 0 {
					t.Fatal("no root shared a chunk with its predecessor: publish copies everything")
				}
			})
		}
	}
}
