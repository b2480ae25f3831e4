package graph

import (
	"fmt"
	"testing"
)

// fuzzBase is FuzzApplyBatchParallel's starting graph: deg out-edges per
// vertex, u -> u+1+3k (mod 32), added in vertex order, so vertex 0's
// in-list ends with its half from 31.
func fuzzBase(deg int) *Streaming {
	g := NewStreaming(32)
	for u := VertexID(0); u < 32; u++ {
		for k := 0; k < deg; k++ {
			g.AddEdge(Edge{u, (u + 1 + 3*VertexID(k)) % 32, Weight(k + 1)})
		}
	}
	return g
}

// FuzzApplyBatchParallel holds the parallel apply to the sequential one.
// The first tape byte picks the worker count (2 or 3, bit 0) and the base
// graph's out-degree (bits 1-3); every further byte pair is an update
// (first byte: bit 7 deletes, bits 0-4 the source; second byte: bits 0-4
// the destination, bits 5-7 the weight). The updates repeat, the source
// xor-ed with the round, until the batch holds the 256 the parallel path
// needs; a second batch replays the first with every update's kind
// flipped. After each batch the parallel graph must equal ApplyBatch's on
// a clone — same lists, same twins, same applied updates — and validate.
func FuzzApplyBatchParallel(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x01, 0x80, 0x01})             // add -> delete
	f.Add([]byte{0x02, 0x80, 0x01, 0x00, 0x21})             // delete -> add
	f.Add([]byte{0x01, 0x00, 0x02, 0x80, 0x02, 0x00, 0x42}) // add -> delete -> add
	// A deletion swaps an out-half added earlier in the batch into its hole.
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 0x02, 0x80, 0x01})
	// Several deletions from vertex 0's in-list, its last half (from 31) first.
	f.Add([]byte{0x0e, 0x9f, 0x00, 0x90, 0x00, 0x96, 0x00, 0x8d, 0x00, 0x9c, 0x00})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) < 3 {
			return
		}
		workers := 2 + int(tape[0]&1)
		par := fuzzBase(int(tape[0] >> 1 & 7))
		seq := par.Clone()
		ops := tape[1 : 1+(len(tape)-1)/2*2]
		var b Batch
		for r := 0; len(b) < 256; r++ {
			for i := 0; i < len(ops); i += 2 {
				b = append(b, Update{
					Edge: Edge{VertexID(ops[i]&0x1f) ^ VertexID(r&0x1f), VertexID(ops[i+1] & 0x1f), Weight(ops[i+1]>>5) + 1},
					Del:  ops[i]&0x80 != 0,
				})
			}
		}
		flipped := make(Batch, len(b))
		for i, u := range b {
			u.Del = !u.Del
			flipped[i] = u
		}
		for k, batch := range []Batch{b, flipped} {
			ctx := fmt.Sprintf("W=%d batch %d", workers, k)
			want := seq.ApplyBatch(batch)
			got := par.ApplyBatchParallel(batch, workers)
			if len(got) != len(want) {
				t.Fatalf("%s: applied %d vs %d", ctx, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: applied[%d] %v vs %v", ctx, i, got[i], want[i])
				}
			}
			if err := par.Validate(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if err := twinsExact(par); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			sameGraph(t, par, seq, ctx)
		}
	})
}
