package expr

import (
	"runtime"
	"testing"

	"repro/internal/gen"
)

// TestFig11AllocBudget is the allocation-regression gate of the batch
// path. It drives Fig 11's engine set (KickStarter and GraphFly on the four
// selective algorithms, GraphBolt and GraphFly on the two accumulative ones,
// over the five datasets) at a smoke scale on one P, and fails when the
// mean heap allocations per batch, counted or in bytes, grow more than 10 %
// over the baseline recorded at commit 7e61dcd: 365.11 allocs and
// 134,080 B per batch over the same 120 batches.
func TestFig11AllocBudget(t *testing.T) {
	const (
		baseAllocs = 365.11
		baseBytes  = 134_080.07
		slack      = 1.10
	)
	// allocs per batch grow with the worker count; Workers 0 follows GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sc := Scale{EdgeCap: 8000, BatchSize: 500, Batches: 2}

	var batches, allocs, bytes uint64
	var before, after runtime.MemStats
	measure := func(e incrementalProcessor, w gen.Workload) {
		for _, b := range w.Batches {
			runtime.ReadMemStats(&before)
			e.ProcessBatch(b)
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
			batches++
		}
	}
	fig11Cases(sc, func(c fig11Case) {
		measure(c.Baseline(), c.W)
		measure(c.GraphFly(), c.W)
	})
	if batches != 120 {
		t.Fatalf("measured %d batches, want Fig 11's 120 (5 datasets x 12 engines x 2)", batches)
	}
	meanAllocs := float64(allocs) / float64(batches)
	meanBytes := float64(bytes) / float64(batches)
	t.Logf("allocs/batch %.1f (budget %.1f), bytes/batch %.0f (budget %.0f)",
		meanAllocs, slack*baseAllocs, meanBytes, slack*baseBytes)
	if meanAllocs > slack*baseAllocs {
		t.Errorf("allocs/batch %.1f exceeds the budget %.1f (baseline %.2f + 10 %%)",
			meanAllocs, slack*baseAllocs, baseAllocs)
	}
	if meanBytes > slack*baseBytes {
		t.Errorf("bytes/batch %.0f exceeds the budget %.0f (baseline %.0f + 10 %%)",
			meanBytes, slack*baseBytes, baseBytes)
	}
}
