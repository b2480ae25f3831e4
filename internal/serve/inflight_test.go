package serve

import (
	"context"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// Stops with a WAL snapshot in flight. At SnapshotEvery 1 every applied
// batch hands a snapshot to the background writer, and on a graph this
// size the writer is still encoding when the next capture, the drain's
// final Snapshot, Abort's Abandon or the degraded exit's ReopenLog comes
// along and must wait for it. Whatever the interleaving, the directory must
// recover to the oracle and no writer goroutine may outlive the stop.

// writerGoroutines counts live background snapshot writers.
func writerGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "wal.(*Durable).write(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// assertNoWriter fails when a writer goroutine survives a stop. A writer
// closes its done channel a few instructions before it exits, so the check
// allows it that long.
func assertNoWriter(t *testing.T, what string) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); writerGoroutines() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: a snapshot writer outlived it", what)
		}
	}
}

func inflightWorkload() gen.Workload {
	cfg := gen.Config{Name: "inflight", Kind: gen.RMAT, NumV: 1 << 14, NumE: 1 << 17,
		Seed: 91, A: 0.57, B: 0.19, C: 0.19, MaxWeight: 8}
	return gen.BuildWorkload(cfg.NumV, gen.Generate(cfg), gen.StreamConfig{
		InitialFraction: 0.9, DeleteRatio: 0.3, BatchSize: 40, NumBatches: 12, Seed: 91,
	})
}

func TestServeStopsWithSnapshotInFlight(t *testing.T) {
	w := inflightWorkload()
	alg := algo.SSSP{Src: 0}
	ref := graph.FromEdges(w.NumV, w.Initial)
	for _, b := range w.Batches {
		ref.ApplyBatch(b)
	}
	want, _ := algo.SolveSelective(ref, alg)

	for _, stop := range []string{"shutdown", "abort", "degraded"} {
		t.Run(stop, func(t *testing.T) {
			reg := metrics.NewRegistry()
			inj := wal.NewDiskFaultInjector(syscall.ENOSPC, 0, 0)
			dc := wal.DurableConfig{SnapshotEvery: 1, DedupWindow: 8, Wal: wal.Options{
				Dir: t.TempDir(), Policy: wal.FsyncAlways, Metrics: reg, DiskFaults: inj,
			}}
			d, err := wal.NewDurableSelective(graph.FromEdges(w.NumV, w.Initial), alg, engine.Config{Workers: 2}, dc)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{Addr: "127.0.0.1:0", Durable: d, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			ing, err := DialOpts(srv.Addr(), ClientOptions{ClientID: "inflight-" + stop,
				BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond, RetryBudget: 1000})
			if err != nil {
				t.Fatal(err)
			}
			defer ing.Close()
			for i, b := range w.Batches {
				if stop == "degraded" && i == len(w.Batches)/2 {
					// The previous batch's snapshot is being written while
					// this append fails; the prober's ReopenLog waits for
					// it, and the retried batch lands once the log is back.
					inj.Set(syscall.ENOSPC, 0, 1)
				}
				if seq, err := ing.IngestRetry(b); err != nil || seq != uint64(i+1) {
					t.Fatalf("batch %d acked at %d, %v", i, seq, err)
				}
			}
			if stop == "degraded" {
				if inj.Fired() == 0 || reg.Counter("serve.degraded_recoveries").Value() == 0 {
					t.Fatalf("no degraded episode: %d faults, %d recoveries",
						inj.Fired(), reg.Counter("serve.degraded_recoveries").Value())
				}
			}
			if stop == "abort" {
				srv.Abort()
			} else {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					t.Fatal(err)
				}
			}
			assertNoWriter(t, stop)
			t.Logf("%s: %d snapshots, %d waits on an in-flight writer", stop,
				reg.Counter("wal.snapshots").Value(), reg.Counter("wal.snapshot_waits").Value())

			dc.Wal.Metrics, dc.Wal.DiskFaults = nil, nil
			d2, rs, err := wal.RecoverSelective(alg, engine.Config{Workers: 2}, dc)
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			if rs.LastSeq != uint64(len(w.Batches)) {
				t.Fatalf("recovered to seq %d, want %d", rs.LastSeq, len(w.Batches))
			}
			if stop != "abort" && rs.Replayed != 0 {
				t.Fatalf("a drained stop replayed %d batches: its final snapshot is missing", rs.Replayed)
			}
			if !valsEqual(d2.Eng.Values(), want) {
				t.Fatal("recovered state differs from the oracle")
			}
		})
	}
}
