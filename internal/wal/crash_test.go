package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rng"
)

// The crash-point fuzzer (DESIGN.md §4.9). A first pass counts every
// durability-critical site the workload reaches (append.write, append.sync,
// rotate.create, snapshot.write/sync/rename/remove, truncate.remove); then
// one scenario per site re-runs the workload and dies exactly there —
// optionally tearing the in-flight write — and recovery must restore a
// state equal to the from-scratch oracle over the surviving prefix, with
// every surviving batch replayed exactly once. Corruption scenarios flip
// bits and truncate log and snapshot files behind a finished run and assert
// the same. Everything is seeded: a failure message reproduces the run.

// crashPlan is the injection schedule for one scenario.
type crashPlan struct {
	at    int // die at the at-th site reached (1-based; 0 = never)
	tear  int // bytes of the pending write to let through (-1 = none)
	count int // sites reached so far
	fired string
}

func (p *crashPlan) hook(site string) error {
	p.count++
	if p.count == p.at {
		p.fired = site
		return &crashError{Site: site, Tear: p.tear}
	}
	return nil
}

// crashConfig is the fixed fuzzing workload: small enough that a scenario
// (static solve + 8 batches + recovery + 2 oracle solves) stays in the low
// milliseconds even under -race, large enough to force segment rotation,
// two snapshot cycles, retention eviction, and log truncation.
func crashConfig(dir string, policy FsyncPolicy, plan *crashPlan, reg *metrics.Registry) DurableConfig {
	opts := Options{Dir: dir, SegmentBytes: 1 << 11, Policy: policy, FsyncEvery: 2, Metrics: reg}
	if plan != nil {
		opts.hook = plan.hook
	}
	return DurableConfig{Wal: opts, SnapshotEvery: 3}
}

// runUntilCrash feeds the workload until the plan kills the run (or it
// completes), returning the number of acknowledged batches and whether the
// run died.
func runUntilCrash(t *testing.T, dir string, w gen.Workload, alg algo.Selective, dc DurableConfig) (acked int, crashed bool) {
	t.Helper()
	d, err := NewDurableSelective(graph.FromEdges(w.NumV, w.Initial), alg, engine.Config{Workers: 2}, dc)
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
	// The last batch may have started a background snapshot: a crash in
	// its writer is the run's death.
	_, crashed = settle(d).(*crashError)
	d.Abandon() // even clean completions die without Close: written bytes persist
	return acked, crashed
}

// settle waits for the background snapshot writer and returns its sticky
// error, so a crash the writer hits lands at a fixed point of the site
// order: before the next append, as ProcessBatch would observe it.
func settle(d *Durable) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.settleLocked()
}

// verifyRecovery recovers the directory and checks the invariants every
// scenario must satisfy: exactly-once replay accounting and oracle equality
// over the recovered prefix. minSeq, when >= 0, additionally asserts
// completeness (no acknowledged batch may be lost).
func verifyRecovery(t *testing.T, w gen.Workload, alg algo.Selective, dc DurableConfig, minSeq int, label string) {
	t.Helper()
	dc.Wal.hook = nil
	d, rs, err := RecoverSelective(alg, engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer d.Close()
	if rs.Replayed != int(rs.LastSeq-rs.SnapshotSeq) {
		t.Fatalf("%s: replayed %d frames over (%d,%d]: duplicate or missed batch",
			label, rs.Replayed, rs.SnapshotSeq, rs.LastSeq)
	}
	if rs.Restore <= 0 || rs.Restore > rs.Duration {
		t.Fatalf("%s: restore took %v of a %v recovery", label, rs.Restore, rs.Duration)
	}
	if int(rs.LastSeq) > len(w.Batches) {
		t.Fatalf("%s: recovered past the stream: seq %d of %d", label, rs.LastSeq, len(w.Batches))
	}
	if minSeq >= 0 && int(rs.LastSeq) < minSeq {
		t.Fatalf("%s: lost acknowledged batches: recovered to %d, acked %d", label, rs.LastSeq, minSeq)
	}
	if !valsEqual(d.Eng.Values(), oracleVals(t, w, alg, int(rs.LastSeq))) {
		t.Fatalf("%s: recovered state differs from oracle over %d batches", label, rs.LastSeq)
	}
}

// countSites runs the workload with a counting-only plan.
func countSites(t *testing.T, w gen.Workload, alg algo.Selective, policy FsyncPolicy) int {
	t.Helper()
	plan := &crashPlan{}
	dir := t.TempDir()
	if _, crashed := runUntilCrash(t, dir, w, alg, crashConfig(dir, policy, plan, nil)); crashed {
		t.Fatal("count pass must not crash")
	}
	return plan.count
}

// TestCrashPointFuzzer is the full matrix: every injection site × three
// fsync policies × clean and torn crashes, plus seeded bit-flip, torn-tail,
// and snapshot-corruption scenarios — well over 200 seeded scenarios.
func TestCrashPointFuzzer(t *testing.T) {
	w := testWorkload(97, 96, 8, 50)
	alg := algo.SSSP{Src: 0}
	scenarios := 0

	for _, policy := range []FsyncPolicy{FsyncOff, FsyncInterval, FsyncAlways} {
		sites := countSites(t, w, alg, policy)
		if sites < 15 {
			t.Fatalf("policy %v: only %d sites — the workload no longer exercises the WAL", policy, sites)
		}
		for _, tear := range []int{-1, 5} { // clean death, and death mid-write
			for k := 1; k <= sites; k++ {
				dir := t.TempDir()
				plan := &crashPlan{at: k, tear: tear}
				dc := crashConfig(dir, policy, plan, nil)
				acked, crashed := runUntilCrash(t, dir, w, alg, dc)
				if !crashed {
					t.Fatalf("policy %v site %d/%d: crash did not fire", policy, k, sites)
				}
				// A crash in the creation path can die before any snapshot
				// exists; then there is nothing to recover, by design.
				if !HasSnapshot(dir) {
					if acked != 0 {
						t.Fatalf("policy %v site %d (%s): %d acked without a snapshot", policy, k, plan.fired, acked)
					}
					scenarios++
					continue
				}
				// Process-crash model: written bytes persist, so every
				// acknowledged batch must survive under every policy.
				label := policy.String() + "/" + plan.fired
				verifyRecovery(t, w, alg, dc, acked, label)
				scenarios++
			}
		}
	}

	// Corruption scenarios run against completed (uncrashed) directories:
	// flip a bit or tear a tail in a random log or snapshot file, then
	// recover. Consistency (oracle equality over whatever prefix survives)
	// must hold even when completeness cannot.
	for seed := uint64(0); seed < 48; seed++ {
		r := rng.New(seed * 7656287)
		dir := t.TempDir()
		dc := crashConfig(dir, FsyncOff, nil, nil)
		acked, _ := runUntilCrash(t, dir, w, alg, dc)

		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var segs, snaps []string
		for _, e := range entries {
			if _, ok := segFirst(e.Name()); ok {
				segs = append(segs, filepath.Join(dir, e.Name()))
			} else if _, ok := snapSeqOf(e.Name()); ok {
				snaps = append(snaps, filepath.Join(dir, e.Name()))
			}
		}
		if len(segs) == 0 || len(snaps) != snapRetain {
			t.Fatalf("seed %d: %d segments, %d snapshots", seed, len(segs), len(snaps))
		}
		switch seed % 4 {
		case 0: // bit-flip somewhere in a random log segment
			corruptFile(t, segs[r.Intn(len(segs))], r, false)
			verifyRecovery(t, w, alg, dc, -1, "log-flip")
		case 1: // tear a random log segment's tail
			corruptFile(t, segs[r.Intn(len(segs))], r, true)
			verifyRecovery(t, w, alg, dc, -1, "log-tear")
		case 2: // bit-flip the NEWEST snapshot: the older one + untrimmed
			// log tail must still recover every acknowledged batch.
			corruptFile(t, snaps[len(snaps)-1], r, false)
			verifyRecovery(t, w, alg, dc, acked, "snap-flip")
		case 3: // tear the newest snapshot mid-file: same fallback.
			corruptFile(t, snaps[len(snaps)-1], r, true)
			verifyRecovery(t, w, alg, dc, acked, "snap-tear")
		}
		scenarios++
	}

	if scenarios < 200 {
		t.Fatalf("only %d scenarios ran; the acceptance bar is 200", scenarios)
	}
	t.Logf("%d crash/corruption scenarios verified", scenarios)
}

// corruptFile flips one random byte (tear=false) or truncates at a random
// interior offset (tear=true).
func corruptFile(t *testing.T, path string, r *rng.Xoshiro256, tear bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 {
		t.Fatalf("%s too small to corrupt", path)
	}
	if tear {
		if err := os.Truncate(path, int64(1+r.Intn(len(data)-1))); err != nil {
			t.Fatal(err)
		}
		return
	}
	data[r.Intn(len(data))] ^= byte(1 + r.Intn(255))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoverySmoke is the check.sh/CI slice of the fuzzer: one seeded
// crash point, one recovery, one oracle check.
func TestCrashRecoverySmoke(t *testing.T) {
	w := testWorkload(41, 64, 5, 40)
	alg := algo.SSSP{Src: 0}
	dir := t.TempDir()
	plan := &crashPlan{at: 11, tear: 5}
	dc := crashConfig(dir, FsyncInterval, plan, nil)
	acked, crashed := runUntilCrash(t, dir, w, alg, dc)
	if !crashed {
		t.Fatal("crash did not fire")
	}
	verifyRecovery(t, w, alg, dc, acked, "smoke/"+plan.fired)
}

// buildMultiSegLog writes n tiny batches across several small segments and
// closes the log cleanly, returning the per-segment paths in order.
func buildMultiSegLog(t *testing.T, dir string, n int) []string {
	t.Helper()
	l, err := Open(Options{Dir: dir, SegmentBytes: 256, Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	b := graph.Batch{{Edge: graph.Edge{Src: 1, Dst: 2, W: 3}}}
	for seq := uint64(1); seq <= uint64(n); seq++ {
		if err := l.Append(seq, b); err != nil {
			t.Fatal(err)
		}
	}
	if l.SegmentCount() < 3 {
		t.Fatalf("only %d segments; the workload no longer rotates", l.SegmentCount())
	}
	var paths []string
	for _, s := range l.segs {
		paths = append(paths, s.path)
	}
	l.Close()
	return paths
}

// TestReplayStrictMidLogCorruption is the satellite-2 regression: Replay
// must not pass mid-log corruption off as a short log. Damage in a non-tail
// segment — behind which later segments still hold valid acknowledged
// frames — is an ErrCorrupt error; the same damage in the tail is the
// expected crash shape and stops cleanly. The corruption lands AFTER Open
// (whose repair would otherwise truncate it): bit rot between the scan and
// the replay is exactly the window the strict check exists for.
func TestReplayStrictMidLogCorruption(t *testing.T) {
	const n = 30
	flip := func(t *testing.T, path string, off int64) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("non-tail damage is an error", func(t *testing.T) {
		dir := t.TempDir()
		segs := buildMultiSegLog(t, dir, n)
		l, err := Open(Options{Dir: dir, SegmentBytes: 256, Policy: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		flip(t, segs[0], 10) // payload of the first segment's first frame
		err = l.Replay(0, func(uint64, graph.Batch) error { return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("mid-log corruption replayed as %v, want ErrCorrupt", err)
		}
	})

	t.Run("tail damage stops cleanly", func(t *testing.T) {
		dir := t.TempDir()
		segs := buildMultiSegLog(t, dir, n)
		l, err := Open(Options{Dir: dir, SegmentBytes: 256, Policy: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		flip(t, segs[len(segs)-1], 10)
		var got int
		if err := l.Replay(0, func(uint64, graph.Batch) error { got++; return nil }); err != nil {
			t.Fatalf("damaged tail must stop cleanly, got %v", err)
		}
		if got == 0 || got >= n {
			t.Fatalf("replayed %d of %d frames; want the pre-tail prefix only", got, n)
		}
	})

	t.Run("torn tail stops cleanly", func(t *testing.T) {
		dir := t.TempDir()
		segs := buildMultiSegLog(t, dir, n)
		l, err := Open(Options{Dir: dir, SegmentBytes: 256, Policy: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		st, err := os.Stat(segs[len(segs)-1])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(segs[len(segs)-1], st.Size()-3); err != nil {
			t.Fatal(err)
		}
		var got int
		if err := l.Replay(0, func(uint64, graph.Batch) error { got++; return nil }); err != nil {
			t.Fatalf("torn tail must stop cleanly, got %v", err)
		}
		if got != n-1 {
			t.Fatalf("replayed %d frames, want %d (all but the torn final frame)", got, n-1)
		}
	})

	t.Run("torn non-tail is an error", func(t *testing.T) {
		dir := t.TempDir()
		segs := buildMultiSegLog(t, dir, n)
		l, err := Open(Options{Dir: dir, SegmentBytes: 256, Policy: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		st, err := os.Stat(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(segs[0], st.Size()-3); err != nil {
			t.Fatal(err)
		}
		err = l.Replay(0, func(uint64, graph.Batch) error { return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("torn non-tail segment replayed as %v, want ErrCorrupt", err)
		}
	})
}

// The background-writer cases. A snapshot's writer runs beside the
// applier, so the sweeps above — which settle it before every append to
// keep one site order — cannot reach two states: a crash while a
// background snapshot is half-written and the applier has moved on, and a
// second snapshot falling due while the first is still being written. A
// gate parks the writer at a chosen site, the test drives the applier past
// it, then releases the writer into death or completion. Every step waits
// on the one before, so each scenario replays exactly.

// bgSites are the writer's sites outside the group's append mutex (the log
// truncation holds it, so no append can overlap a writer parked there).
var bgSites = []string{"snapshot.write", "snapshot.sync", "snapshot.rename", "snapshot.remove"}

// gate parks the writer the nth time, counted from arm, it reaches site,
// and returns the fate the test releases it with.
type gate struct {
	mu      sync.Mutex
	site    string
	nth     int
	armed   bool
	reached chan struct{}
	release chan error
}

func newGate(site string, nth int) *gate {
	return &gate{site: site, nth: nth, reached: make(chan struct{}), release: make(chan error)}
}

func (g *gate) arm() {
	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
}

func (g *gate) hook(site string) error {
	g.mu.Lock()
	hit := g.armed && site == g.site
	if hit {
		g.nth--
		hit = g.nth == 0
	}
	g.mu.Unlock()
	if !hit {
		return nil
	}
	close(g.reached)
	return <-g.release
}

// writerDone returns a channel closed once no snapshot writer runs.
func writerDone(d *Durable) <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.snap == nil {
		c := make(chan struct{})
		close(c)
		return c
	}
	return d.snap.done
}

// bgCase is one background scenario: the gate, whether a second snapshot
// falls due while the writer is parked, and the parked writer's fate.
type bgCase struct {
	site   string
	nth    int
	second bool
	crash  bool
}

func (c bgCase) String() string {
	return fmt.Sprintf("%s#%d second=%v crash=%v", c.site, c.nth, c.second, c.crash)
}

// runBackground drives fam through the group-commit path (Append, then
// ApplyLogged, which waits for a writer only at its next capture) until the
// gate parks a writer, moves the applier one batch on, and — for a second
// snapshot — starts the capture that must wait. It returns the acked count
// and whether the gate was reached with room left for the case; the caller
// recovers the directory.
func runBackground(t *testing.T, fam Family, w gen.Workload, dc DurableConfig, c bgCase) (acked int, ran bool) {
	t.Helper()
	g := newGate(c.site, c.nth)
	dc.Wal.hook = g.hook
	d, err := NewDurable(graph.FromEdges(w.NumV, w.Initial), fam, engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatal(err)
	}
	g.arm()
	d.Group(nil, nil)
	appendNext := func(i int) uint64 {
		seq, err := d.Append(w.Batches[i])
		if err != nil {
			t.Fatalf("%v: append %d: %v", c, i, err)
		}
		acked++
		return seq
	}
	apply := func(i int, seq uint64) error {
		_, err := d.ApplyLogged(context.Background(), seq, w.Batches[i])
		return err
	}
	i, parked := 0, false
	for ; i < len(w.Batches) && !parked; i++ {
		if err := apply(i, appendNext(i)); err != nil {
			t.Fatalf("%v: batch %d: %v", c, i, err)
		}
		select {
		case <-g.reached:
			parked = true
		case <-writerDone(d):
		}
	}
	need := 1
	if c.second {
		need = 2
	}
	if !parked || i+need > len(w.Batches) {
		if parked {
			g.release <- nil
		}
		d.Close()
		return acked, false
	}
	var fate error
	if c.crash {
		fate = &crashError{Site: c.site, Tear: -1}
	}
	// The writer is parked; the applier moves on with a batch that starts
	// no snapshot (SnapshotEvery is 2).
	if err := apply(i, appendNext(i)); err != nil {
		t.Fatalf("%v: batch %d past the parked writer: %v", c, i, err)
	}
	i++
	if c.site == "snapshot.sync" {
		// Parked before its fsync: cut the temp file to half, a writer
		// that died mid-write.
		tmps, _ := filepath.Glob(filepath.Join(dc.Wal.Dir, "*"+tmpSuffix))
		for _, p := range tmps {
			if st, err := os.Stat(p); err == nil {
				os.Truncate(p, st.Size()/2)
			}
		}
	}
	if !c.second {
		g.release <- fate
		d.Abandon() // waits for the dying (or finishing) writer
		return acked, true
	}
	// The next batch falls due while the writer is still parked: its
	// capture must wait for it.
	waits := dc.Wal.Metrics.Counter("wal.snapshot_waits")
	before := waits.Value()
	seq := appendNext(i)
	errc := make(chan error, 1)
	go func(i int) { errc <- apply(i, seq) }(i)
	i++
	for deadline := time.Now().Add(10 * time.Second); waits.Value() == before; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v: the second capture never waited on the parked writer", c)
		}
	}
	g.release <- fate
	err = <-errc
	if c.crash {
		if _, ok := err.(*crashError); !ok {
			t.Fatalf("%v: the waiting capture returned %v, want the writer's crash", c, err)
		}
		d.Abandon()
		return acked, true
	}
	if err != nil {
		t.Fatalf("%v: second capture: %v", c, err)
	}
	for ; i < len(w.Batches); i++ {
		if err := apply(i, appendNext(i)); err != nil {
			t.Fatalf("%v: batch %d: %v", c, i, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("%v: close: %v", c, err)
	}
	seqs, err := Snapshots(dc.Wal.Dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("%v: snapshots %v, %v", c, seqs, err)
	}
	if last := seqs[len(seqs)-1]; last != uint64(len(w.Batches)/2*2) {
		t.Fatalf("%v: newest snapshot %d, want %d: a snapshot behind the waiting capture was lost", c, last, len(w.Batches)/2*2)
	}
	return acked, true
}

// sweepBackground runs every bgCase over fam and checks each recovery with
// verify, plus that no snapshot temp file survives recovery. Every site
// must be reached in every case shape.
func sweepBackground(t *testing.T, fam Family, w gen.Workload,
	verify func(dc DurableConfig, minSeq int, label string)) int {
	t.Helper()
	ran := map[string]int{}
	scenarios := 0
	for _, site := range bgSites {
		for nth := 1; nth <= 2; nth++ {
			for _, shape := range []struct{ second, crash bool }{{false, true}, {true, false}, {true, true}} {
				c := bgCase{site: site, nth: nth, second: shape.second, crash: shape.crash}
				dir := t.TempDir()
				dc := crashConfig(dir, FsyncAlways, nil, metrics.NewRegistry())
				dc.SnapshotEvery = 2
				acked, ok := runBackground(t, fam, w, dc, c)
				if !ok {
					continue
				}
				ran[fmt.Sprintf("%s second=%v crash=%v", site, shape.second, shape.crash)]++
				dc.Wal.Metrics = nil
				verify(dc, acked, "background/"+c.String())
				if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix)); len(tmps) != 0 {
					t.Fatalf("%v: recovery left %v", c, tmps)
				}
				scenarios++
			}
		}
	}
	if len(ran) != 3*len(bgSites) {
		t.Fatalf("only %d of %d site/shape pairs reached: %v", len(ran), 3*len(bgSites), ran)
	}
	return scenarios
}

// TestBackgroundSnapshotCrashes: the two background cases over the
// selective family — a crash while a snapshot is half-written behind a
// moving applier, and a second snapshot falling due before the first is
// written (completing, or dying under the waiting capture).
func TestBackgroundSnapshotCrashes(t *testing.T) {
	w := testWorkload(97, 96, 12, 50)
	alg := algo.SSSP{Src: 0}
	n := sweepBackground(t, SelectiveFamily(alg), w, func(dc DurableConfig, minSeq int, label string) {
		verifyRecovery(t, w, alg, dc, minSeq, label)
	})
	t.Logf("%d background-writer scenarios verified", n)
}
