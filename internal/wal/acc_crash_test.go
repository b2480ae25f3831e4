package wal

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// The accumulative / local family crash sweeps mirror crash_test.go:
// every injection site the workload reaches × fsync policies × clean/torn
// death, plus corruption of the residual snapshots behind finished runs.
// Replay accounting is validated by the consistency oracle's exactly-once
// check, and the recovered state by FirstDivergence against a from-scratch
// solve (tolerance-bounded for the accumulative engine, bit-exact for the
// local engines).

func runUntilCrashAcc(t *testing.T, w gen.Workload, alg algo.Accumulative, dc DurableConfig) (acked int, crashed bool) {
	t.Helper()
	d, err := NewDurable(graph.FromEdges(w.NumV, w.Initial), AccumulativeFamily(alg), engine.Config{Workers: 2}, dc)
	if err != nil {
		if _, ok := err.(*crashError); ok {
			return 0, true
		}
		t.Fatal(err)
	}
	for _, b := range w.Batches {
		if _, err := d.ProcessBatch(context.Background(), b); err != nil {
			if _, ok := err.(*crashError); ok {
				d.Abandon()
				return acked, true
			}
			t.Fatal(err)
		}
		acked++
	}
	_, crashed = settle(d).(*crashError)
	d.Abandon()
	return acked, crashed
}

func accOracleVals(t *testing.T, w gen.Workload, alg algo.Accumulative, n int) []float64 {
	t.Helper()
	g := graph.FromEdges(w.NumV, w.Initial)
	for _, b := range w.Batches[:n] {
		g.ApplyBatch(b)
	}
	return algo.SolveAccumulative(g, alg)
}

func verifyAccRecovery(t *testing.T, w gen.Workload, alg algo.Accumulative, dc DurableConfig, minSeq int, label string) {
	t.Helper()
	dc.Wal.hook = nil
	d, rs, err := Recover(AccumulativeFamily(alg), engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer d.Close()
	if v := oracle.CheckReplay("wal/accumulative", rs.SnapshotSeq, rs.LastSeq, rs.Replayed); v != nil {
		t.Fatalf("%s: %v", label, v)
	}
	if int(rs.LastSeq) > len(w.Batches) {
		t.Fatalf("%s: recovered past the stream: seq %d of %d", label, rs.LastSeq, len(w.Batches))
	}
	if minSeq >= 0 && int(rs.LastSeq) < minSeq {
		t.Fatalf("%s: lost acknowledged batches: recovered to %d, acked %d", label, rs.LastSeq, minSeq)
	}
	want := accOracleVals(t, w, alg, int(rs.LastSeq))
	if i, div := oracle.FirstDivergence(d.Eng.Values(), want, oracle.AccTolerance); div {
		t.Fatalf("%s: recovered state differs from oracle at vertex %d over %d batches",
			label, i, rs.LastSeq)
	}
}

// TestAccCrashPointSweep is the acceptance-bar sweep: ≥ 100 seeded crash
// points across every site × policy × clean/torn death, plus seeded
// corruption of the snapshot-of-residuals files.
func TestAccCrashPointSweep(t *testing.T) {
	w := testWorkload(113, 96, 8, 50)
	alg := algo.NewPageRank(w.NumV)
	scenarios := 0

	for _, policy := range []FsyncPolicy{FsyncOff, FsyncInterval, FsyncAlways} {
		countPlan := &crashPlan{}
		countDir := t.TempDir()
		if _, crashed := runUntilCrashAcc(t, w, alg, crashConfig(countDir, policy, countPlan, nil)); crashed {
			t.Fatal("count pass must not crash")
		}
		sites := countPlan.count
		if sites < 15 {
			t.Fatalf("policy %v: only %d sites — the workload no longer exercises the WAL", policy, sites)
		}
		for _, tear := range []int{-1, 5} {
			for k := 1; k <= sites; k++ {
				dir := t.TempDir()
				plan := &crashPlan{at: k, tear: tear}
				dc := crashConfig(dir, policy, plan, nil)
				acked, crashed := runUntilCrashAcc(t, w, alg, dc)
				if !crashed {
					t.Fatalf("policy %v site %d/%d: crash did not fire", policy, k, sites)
				}
				if !HasSnapshot(dir) {
					if acked != 0 {
						t.Fatalf("policy %v site %d (%s): %d acked without a snapshot", policy, k, plan.fired, acked)
					}
					scenarios++
					continue
				}
				verifyAccRecovery(t, w, alg, dc, acked, policy.String()+"/"+plan.fired)
				scenarios++
			}
		}
	}

	// Corruption of the residual snapshots behind completed runs: flipping
	// or tearing the newest snapshot must fall back to the older one plus
	// the untrimmed log tail without losing an acknowledged batch.
	for seed := uint64(0); seed < 24; seed++ {
		r := rng.New(seed*9151841 + 17)
		dir := t.TempDir()
		dc := crashConfig(dir, FsyncOff, nil, nil)
		acked, _ := runUntilCrashAcc(t, w, alg, dc)

		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var snaps []string
		for _, e := range entries {
			if _, ok := snapSeqOf(e.Name()); ok {
				snaps = append(snaps, filepath.Join(dir, e.Name()))
			}
		}
		if len(snaps) != snapRetain {
			t.Fatalf("seed %d: %d snapshots, want %d", seed, len(snaps), snapRetain)
		}
		if seed%2 == 0 {
			corruptFile(t, snaps[len(snaps)-1], r, true) // torn residual snapshot
			verifyAccRecovery(t, w, alg, dc, acked, "accsnap-tear")
		} else {
			corruptFile(t, snaps[len(snaps)-1], r, false) // bit-flipped residuals
			verifyAccRecovery(t, w, alg, dc, acked, "accsnap-flip")
		}
		scenarios++
	}

	if scenarios < 100 {
		t.Fatalf("only %d scenarios ran; the acceptance bar is 100", scenarios)
	}
	t.Logf("%d accumulative crash/corruption scenarios verified", scenarios)
}

// TestAccBackgroundSnapshotCrashes is TestBackgroundSnapshotCrashes over
// the accumulative family: its residual state frame is captured at the
// boundary and written while the applier runs on.
func TestAccBackgroundSnapshotCrashes(t *testing.T) {
	w := testWorkload(113, 96, 12, 50)
	alg := algo.NewPageRank(w.NumV)
	n := sweepBackground(t, AccumulativeFamily(alg), w, func(dc DurableConfig, minSeq int, label string) {
		verifyAccRecovery(t, w, alg, dc, minSeq, label)
	})
	t.Logf("%d accumulative background-writer scenarios verified", n)
}

// TestDurableAccumulativeRoundTrip pins the uncrashed path: snapshots and
// recovery on a clean directory reproduce the engine state exactly (the
// residuals restore bit-for-bit; only replayed batches are tolerance-bound).
func TestDurableAccumulativeRoundTrip(t *testing.T) {
	w := testWorkload(29, 64, 6, 40)
	alg := algo.NewPageRank(w.NumV)
	dir := t.TempDir()
	dc := DurableConfig{Wal: Options{Dir: dir, SegmentBytes: 1 << 12, Policy: FsyncOff}, SnapshotEvery: 2}
	d, err := NewDurable(graph.FromEdges(w.NumV, w.Initial), AccumulativeFamily(alg), engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches {
		if _, err := d.ProcessBatch(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	want := d.Eng.Values()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, rs, err := Recover(AccumulativeFamily(alg), engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v := oracle.CheckReplay("wal/accumulative", rs.SnapshotSeq, rs.LastSeq, rs.Replayed); v != nil {
		t.Fatal(v)
	}
	if rs.LastSeq != uint64(len(w.Batches)) {
		t.Fatalf("recovered to seq %d, want %d", rs.LastSeq, len(w.Batches))
	}
	if i, div := oracle.FirstDivergence(r.Eng.Values(), want, oracle.AccTolerance); div {
		t.Fatalf("recovered state differs from pre-close state at index %d", i)
	}
	if r.Seq() != rs.LastSeq || r.Dirty() {
		t.Fatalf("recovered wrapper in bad state: seq %d dirty %v", r.Seq(), r.Dirty())
	}
}

// --- LocalFamily: crash sweep over the non-monotonic workloads ---

func localWorkloadMirrored(seed uint64) gen.Workload {
	w := testWorkload(seed, 96, 8, 50)
	var both []graph.Edge
	for _, e := range w.Initial {
		both = append(both, e, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
	}
	w.Initial = both
	return w
}

func localOracleVals(t *testing.T, w gen.Workload, alg algo.Local, n int) []float64 {
	t.Helper()
	g := graph.FromEdges(w.NumV, w.Initial)
	for _, b := range w.Batches[:n] {
		g.ApplyBatch(engine.Symmetrize(b))
	}
	return alg.Solve(g)
}

func runUntilCrashLocal(t *testing.T, w gen.Workload, alg algo.Local, dc DurableConfig) (acked int, crashed bool) {
	t.Helper()
	d, err := NewDurable(graph.FromEdges(w.NumV, w.Initial), LocalFamily(alg), engine.Config{Workers: 2}, dc)
	if err != nil {
		if _, ok := err.(*crashError); ok {
			return 0, true
		}
		t.Fatal(err)
	}
	for _, b := range w.Batches {
		if _, err := d.ProcessBatch(context.Background(), b); err != nil {
			if _, ok := err.(*crashError); ok {
				d.Abandon()
				return acked, true
			}
			t.Fatal(err)
		}
		acked++
	}
	_, crashed = settle(d).(*crashError)
	d.Abandon()
	return acked, crashed
}

func verifyLocalRecovery(t *testing.T, w gen.Workload, alg algo.Local, dc DurableConfig, minSeq int, label string) {
	t.Helper()
	dc.Wal.hook = nil
	d, rs, err := Recover(LocalFamily(alg), engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer d.Close()
	if v := oracle.CheckReplay("wal/local", rs.SnapshotSeq, rs.LastSeq, rs.Replayed); v != nil {
		t.Fatalf("%s: %v", label, v)
	}
	if minSeq >= 0 && int(rs.LastSeq) < minSeq {
		t.Fatalf("%s: lost acknowledged batches: recovered to %d, acked %d", label, rs.LastSeq, minSeq)
	}
	// Unique seeded fixpoints over small integers: bit-exact, no tolerance.
	want := localOracleVals(t, w, alg, int(rs.LastSeq))
	if i, div := oracle.FirstDivergence(d.Eng.Values(), want, 0); div {
		t.Fatalf("%s: recovered state differs from oracle at vertex %d over %d batches",
			label, i, rs.LastSeq)
	}
}

// TestLocalCrashPointSweep drives both non-monotonic workloads through the
// injection sites under the interval policy (the other policies only move
// sync sites, which the accumulative and selective sweeps already cover).
func TestLocalCrashPointSweep(t *testing.T) {
	for _, alg := range []algo.Local{algo.TriangleCount{}, algo.KCore{}} {
		w := localWorkloadMirrored(131)
		countPlan := &crashPlan{}
		countDir := t.TempDir()
		if _, crashed := runUntilCrashLocal(t, w, alg, crashConfig(countDir, FsyncInterval, countPlan, nil)); crashed {
			t.Fatal("count pass must not crash")
		}
		if countPlan.count < 15 {
			t.Fatalf("%s: only %d sites", alg.Name(), countPlan.count)
		}
		for _, tear := range []int{-1, 5} {
			for k := 1; k <= countPlan.count; k++ {
				dir := t.TempDir()
				plan := &crashPlan{at: k, tear: tear}
				dc := crashConfig(dir, FsyncInterval, plan, nil)
				acked, crashed := runUntilCrashLocal(t, w, alg, dc)
				if !crashed {
					t.Fatalf("%s site %d: crash did not fire", alg.Name(), k)
				}
				if !HasSnapshot(dir) {
					if acked != 0 {
						t.Fatalf("%s site %d (%s): %d acked without a snapshot", alg.Name(), k, plan.fired, acked)
					}
					continue
				}
				verifyLocalRecovery(t, w, alg, dc, acked, alg.Name()+"/"+plan.fired)
			}
		}
	}
}
