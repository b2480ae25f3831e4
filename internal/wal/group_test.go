package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// The group-commit suite (DESIGN.md §4.11): concurrent appenders through
// Durable.Append must keep the on-disk sequence chain contiguous, preserve each
// session's submission order, share fsyncs under FsyncAlways, and leave a
// directory that recovers exactly like the single-writer path.

// tagBatch encodes (session, i) as a single addition so a log replay can
// reconstruct which session appended which batch in which order.
func tagBatch(session, i int) graph.Batch {
	return graph.Batch{{Edge: graph.Edge{
		Src: graph.VertexID(session),
		Dst: graph.VertexID(16 + i),
		W:   graph.Weight(1 + i%7),
	}}}
}

// TestGroupCommitConcurrentAppenders is the acceptance suite's core: 8
// goroutine appenders race through one Durable's Append under FsyncAlways while a
// single applier feeds the engine in logged order. Run under -race.
func TestGroupCommitConcurrentAppenders(t *testing.T) {
	const (
		sessions   = 8
		perSession = 25
		total      = sessions * perSession
	)
	w := testWorkload(7, 64, 1, 10)
	alg := algo.SSSP{Src: 0}
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	dc := DurableConfig{Wal: Options{
		Dir: dir, Policy: FsyncAlways, Metrics: reg,
		// Stretch each fsync so appenders pile up behind the in-flight sync
		// and groups form even on a single-core scheduler.
		hook: func(site string) error {
			if site == "append.sync" {
				time.Sleep(300 * time.Microsecond)
			}
			return nil
		},
	}}
	d, err := NewDurableSelective(graph.FromEdges(w.NumV, w.Initial), alg, engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatal(err)
	}

	type logged struct {
		seq uint64
		b   graph.Batch
	}
	applyQ := make(chan logged, total)
	groupSize := reg.Histogram("serve.group_commit_size")
	d.Group(func(seq uint64, b graph.Batch) {
		applyQ <- logged{seq, b}
	}, groupSize)

	var applyErr error
	applierDone := make(chan struct{})
	go func() {
		defer close(applierDone)
		for lg := range applyQ {
			if _, err := d.ApplyLogged(context.Background(), lg.seq, lg.b); err != nil && applyErr == nil {
				applyErr = err
			}
		}
	}()

	// ackSeqs[s][i] is the sequence session s got back for its i-th batch.
	ackSeqs := make([][]uint64, sessions)
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		ackSeqs[s] = make([]uint64, perSession)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSession; i++ {
				seq, err := d.Append(tagBatch(s, i))
				if err != nil {
					errs[s] = err
					return
				}
				ackSeqs[s][i] = seq
			}
		}(s)
	}
	wg.Wait()
	close(applyQ)
	<-applierDone
	for s, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", s, err)
		}
	}
	if applyErr != nil {
		t.Fatalf("applier: %v", applyErr)
	}
	if got := d.Seq(); got != total {
		t.Fatalf("applied through seq %d, want %d", got, total)
	}

	// Acks are durable-on-return: each session's acked sequences must be
	// strictly increasing (its own FIFO), and the union must be 1..total.
	seen := make([]bool, total+1)
	for s := 0; s < sessions; s++ {
		for i, seq := range ackSeqs[s] {
			if i > 0 && seq <= ackSeqs[s][i-1] {
				t.Fatalf("session %d: ack %d (=%d) not after ack %d (=%d)", s, i, seq, i-1, ackSeqs[s][i-1])
			}
			if seq < 1 || seq > total || seen[seq] {
				t.Fatalf("session %d: duplicate or out-of-range ack seq %d", s, seq)
			}
			seen[seq] = true
		}
	}

	// Fsync sharing: with 8 writers queuing behind each in-flight sync, the
	// fsync count must be well below one per append (the group-commit claim).
	appends := reg.Counter("wal.appends").Value()
	fsyncs := reg.Counter("wal.fsyncs").Value()
	if appends != total {
		t.Fatalf("wal.appends = %d, want %d", appends, total)
	}
	if fsyncs*2 >= appends {
		t.Fatalf("no fsync sharing: %d fsyncs for %d appends", fsyncs, appends)
	}
	if groupSize.Sum() != total {
		t.Fatalf("group_commit_size sum %d, want %d (every append in exactly one group)", groupSize.Sum(), total)
	}
	t.Logf("%d appends, %d fsyncs (amplification %.3f), max group %d",
		appends, fsyncs, float64(fsyncs)/float64(appends), groupSize.Max())

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The on-disk log is the authoritative order. Replay it: the chain must
	// be contiguous 1..total, and each session's tags must appear in
	// submission order — per-session FIFO survived the races.
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	nextTag := make([]int, sessions)
	g := graph.FromEdges(w.NumV, w.Initial)
	var prev uint64
	replayed := 0
	err = l.Replay(0, func(seq uint64, b graph.Batch) error {
		if seq != prev+1 {
			t.Fatalf("replay gap: %d after %d", seq, prev)
		}
		prev = seq
		replayed++
		if len(b) != 1 || b[0].Del {
			t.Fatalf("seq %d: untagged batch %v", seq, b)
		}
		s, i := int(b[0].Src), int(b[0].Dst)-16
		if s < 0 || s >= sessions || i != nextTag[s] {
			t.Fatalf("seq %d: session %d batch %d out of order (want batch %d)", seq, s, i, nextTag[s])
		}
		nextTag[s]++
		g.ApplyBatch(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if replayed != total {
		t.Fatalf("replayed %d frames, want %d", replayed, total)
	}

	// The served state equals a from-scratch solve over the logged stream.
	vals, _ := algo.SolveSelective(g, alg)
	if !valsEqual(d.Eng.Values(), vals) {
		t.Fatal("engine state after concurrent group commit differs from replay oracle")
	}
}

// runServingUntilCrash is runUntilCrash's serving-mode twin: batches flow
// through the group-commit path (Append, then ApplyLogged), and an injected crash
// abandons the directory exactly as process death would.
func runServingUntilCrash(t *testing.T, w gen.Workload, alg algo.Selective, dc DurableConfig) (acked int, crashed bool) {
	t.Helper()
	d, err := NewDurableSelective(graph.FromEdges(w.NumV, w.Initial), alg, engine.Config{Workers: 2}, dc)
	if err != nil {
		if _, ok := err.(*crashError); ok {
			return 0, true
		}
		t.Fatal(err)
	}
	d.Group(nil, nil)
	for _, b := range w.Batches {
		seq, err := d.Append(b)
		if err != nil {
			if _, ok := err.(*crashError); ok {
				d.Abandon()
				return acked, true
			}
			t.Fatal(err)
		}
		if _, err := d.ApplyLogged(context.Background(), seq, b); err != nil {
			if _, ok := err.(*crashError); ok {
				d.Abandon()
				return acked, true
			}
			t.Fatal(err)
		}
		acked++
		// Let a snapshot this batch started finish before the next append,
		// so the sites keep one order (the concurrent case has its own
		// sweep); a crash in its writer is the run's death.
		if _, ok := settle(d).(*crashError); ok {
			d.Abandon()
			return acked, true
		}
	}
	d.Abandon()
	return acked, false
}

// TestServingModeCrashRecovery drives the crash-point methodology through
// the group-commit path: a directory written in serving mode must recover
// with exactly-once replay accounting (Replayed == LastSeq - SnapshotSeq),
// no acknowledged batch lost, and oracle-equal state.
func TestServingModeCrashRecovery(t *testing.T) {
	w := testWorkload(23, 96, 8, 50)
	alg := algo.SSSP{Src: 0}

	// Count pass: how many injection sites does the serving path reach?
	countPlan := &crashPlan{}
	{
		dir := t.TempDir()
		if _, crashed := runServingUntilCrash(t, w, alg, crashConfig(dir, FsyncAlways, countPlan, nil)); crashed {
			t.Fatal("count pass must not crash")
		}
	}
	sites := countPlan.count
	if sites < 15 {
		t.Fatalf("serving path reached only %d sites", sites)
	}

	for _, tear := range []int{-1, 5} {
		for _, at := range []int{sites / 4, sites / 2, 3 * sites / 4, sites} {
			dir := t.TempDir()
			plan := &crashPlan{at: at, tear: tear}
			dc := crashConfig(dir, FsyncAlways, plan, nil)
			acked, crashed := runServingUntilCrash(t, w, alg, dc)
			if !crashed {
				t.Fatalf("site %d/%d tear %d: crash did not fire", at, sites, tear)
			}
			if !HasSnapshot(dir) {
				if acked != 0 {
					t.Fatalf("site %d (%s): %d acked without a snapshot", at, plan.fired, acked)
				}
				continue
			}
			verifyRecovery(t, w, alg, dc, acked, "serving/"+plan.fired)
		}
	}
}

// TestAppendFailurePoisonsLog is the satellite-1 regression: a failed or
// torn frame write leaves l.size out of step with the file, so the first
// error must surface as-is, every later Append/Sync must refuse with
// ErrPoisoned, and a re-Open must repair the torn bytes and resume.
func TestAppendFailurePoisonsLog(t *testing.T) {
	b := graph.Batch{{Edge: graph.Edge{Src: 0, Dst: 1, W: 1}}}

	t.Run("torn write", func(t *testing.T) {
		dir := t.TempDir()
		// Sites under FsyncAlways: seq 1 = rotate.create, append.write,
		// append.sync; seq 2's append.write is site 4.
		plan := &crashPlan{at: 4, tear: 3}
		l, err := Open(Options{Dir: dir, Policy: FsyncAlways, hook: plan.hook})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(1, b); err != nil {
			t.Fatal(err)
		}
		err = l.Append(2, b)
		ce, ok := err.(*crashError)
		if !ok || ce.Site != "append.write" {
			t.Fatalf("first failure must be the original error, got %v (fired %q)", err, plan.fired)
		}
		if l.LastSeq() != 1 {
			t.Fatalf("failed append advanced lastSeq to %d", l.LastSeq())
		}
		// The log now has 3 stray bytes; any further append would interleave
		// a frame mid-stream. Sticky refusal, not silent reuse:
		if err := l.Append(2, b); !errors.Is(err, ErrPoisoned) {
			t.Fatalf("second append after failure: got %v, want ErrPoisoned", err)
		}
		if err := l.Sync(); !errors.Is(err, ErrPoisoned) {
			t.Fatalf("sync after failure: got %v, want ErrPoisoned", err)
		}
		l.abandon()

		// Re-Open is the only way forward: repair truncates the torn bytes
		// and the chain resumes where the last durable frame left it.
		l2, err := Open(Options{Dir: dir, Policy: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		if l2.LastSeq() != 1 {
			t.Fatalf("repair recovered lastSeq %d, want 1", l2.LastSeq())
		}
		if err := l2.Append(2, b); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		var seqs []uint64
		if err := l2.Replay(0, func(seq uint64, _ graph.Batch) error {
			seqs = append(seqs, seq)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
			t.Fatalf("replay after repair: %v", seqs)
		}
		l2.Close()
	})

	t.Run("failed fsync", func(t *testing.T) {
		dir := t.TempDir()
		plan := &crashPlan{at: 3, tear: -1} // seq 1's append.sync
		l, err := Open(Options{Dir: dir, Policy: FsyncAlways, hook: plan.hook})
		if err != nil {
			t.Fatal(err)
		}
		err = l.Append(1, b)
		if ce, ok := err.(*crashError); !ok || ce.Site != "append.sync" {
			t.Fatalf("got %v, want the original crash at append.sync", err)
		}
		// The kernel may have dropped the dirty pages; retrying cannot make
		// the frame durable, so the log must refuse.
		if err := l.Append(2, b); !errors.Is(err, ErrPoisoned) {
			t.Fatalf("append after failed fsync: got %v, want ErrPoisoned", err)
		}
		l.abandon()
	})

	t.Run("sequence errors do not poison", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, Policy: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if err := l.Append(1, b); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(7, b); err == nil || errors.Is(err, ErrPoisoned) {
			t.Fatalf("gap append: got %v, want a plain validation error", err)
		}
		// Nothing touched disk, so the log stays usable.
		if err := l.Append(2, b); err != nil {
			t.Fatalf("append after validation error: %v", err)
		}
	})
}

// TestGroupWindowSharesFsyncs covers the commit window (Options.GroupWindow):
// with several advertised writers, a sync leader yields before its fsync so
// concurrent appends land and share it — the mechanism that makes groups form
// on few-core hosts where appenders rarely overlap an in-flight fsync by
// accident. A lone writer must skip the window entirely.
func TestGroupWindowSharesFsyncs(t *testing.T) {
	const (
		sessions   = 4
		perSession = 15
		total      = sessions * perSession
	)
	w := testWorkload(11, 64, 1, 10)
	alg := algo.SSSP{Src: 0}
	reg := metrics.NewRegistry()
	dc := DurableConfig{Wal: Options{
		Dir: t.TempDir(), Policy: FsyncAlways, Metrics: reg,
		GroupWindow: 2 * time.Millisecond,
	}}
	d, err := NewDurableSelective(graph.FromEdges(w.NumV, w.Initial), alg, engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatal(err)
	}
	d.Group(nil, nil)
	d.AddWriter(sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSession; i++ {
				if _, err := d.Append(tagBatch(s, i)); err != nil {
					t.Errorf("session %d append %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	d.AddWriter(-sessions)
	appends := reg.Counter("wal.appends").Value()
	fsyncs := reg.Counter("wal.fsyncs").Value()
	if appends != total {
		t.Fatalf("appends = %d, want %d", appends, total)
	}
	if fsyncs*2 > appends {
		t.Fatalf("window never formed groups: %d fsyncs for %d appends", fsyncs, appends)
	}
	t.Logf("window grouping: %d appends, %d fsyncs (amplification %.3f)",
		appends, fsyncs, float64(fsyncs)/float64(appends))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Lone writer: with no concurrency advertised and none in flight, the
	// leader must not sleep — 20 sequential appends under a 50ms window
	// would otherwise take a full second.
	dc2 := DurableConfig{Wal: Options{
		Dir: t.TempDir(), Policy: FsyncAlways,
		GroupWindow: 50 * time.Millisecond,
	}}
	d2, err := NewDurableSelective(graph.FromEdges(w.NumV, w.Initial), alg, engine.Config{Workers: 2}, dc2)
	if err != nil {
		t.Fatal(err)
	}
	d2.Group(nil, nil)
	t0 := time.Now()
	for i := 0; i < 20; i++ {
		if _, err := d2.Append(tagBatch(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Fatalf("lone writer paid the commit window: 20 appends took %v", elapsed)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitFsyncFailureExactlyOnce drives several appenders into one
// commit window and fails the covering fsync: every parked writer must
// observe the failure exactly once (its own Append returns the error, never
// a false ack), the log must poison consistently for later appends, and
// after a ReopenLog each writer's resend of the SAME idempotency key must
// land exactly once — the already-applied ones dedup, the rest append fresh.
func TestGroupCommitFsyncFailureExactlyOnce(t *testing.T) {
	const writers = 6
	w := testWorkload(41, 64, 1, 10)
	alg := algo.SSSP{Src: 0}
	var failSync atomic.Bool
	dc := DurableConfig{DedupWindow: 8, Wal: Options{
		Dir: t.TempDir(), Policy: FsyncAlways,
		// Hold the window open so the writers pile into one sync round, and
		// fail that round's fsync when armed.
		GroupWindow: 2 * time.Millisecond,
		hook: func(site string) error {
			if site == "append.sync" && failSync.CompareAndSwap(true, false) {
				return errors.New("injected fsync failure")
			}
			return nil
		},
	}}
	d, err := NewDurableSelective(graph.FromEdges(w.NumV, w.Initial), alg, engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatal(err)
	}
	type logged struct {
		seq uint64
		b   graph.Batch
	}
	applyQ := make(chan logged, 64)
	d.Group(func(seq uint64, b graph.Batch) { applyQ <- logged{seq, b} }, nil)
	applierDone := make(chan error, 1)
	go func() {
		for lg := range applyQ {
			if _, err := d.ApplyLogged(context.Background(), lg.seq, lg.b); err != nil {
				applierDone <- err
				return
			}
		}
		applierDone <- nil
	}()
	d.AddWriter(writers)

	// One healthy append proves the rig, then arm the failure and park all
	// writers in the same commit window.
	if _, err := d.Append(tagBatch(0, 0)); err != nil {
		t.Fatal(err)
	}
	failSync.Store(true)
	type result struct {
		id  int
		err error
	}
	results := make(chan result, writers)
	for i := 0; i < writers; i++ {
		go func(i int) {
			_, _, err := d.AppendTagged(fmt.Sprintf("w%d", i), 1, tagBatch(i+1, 1))
			results <- result{i, err}
		}(i)
	}
	nerr := 0
	for i := 0; i < writers; i++ {
		r := <-results
		if r.err == nil {
			t.Fatalf("writer %d was acked by a failed commit window", r.id)
		}
		nerr++
	}
	if nerr != writers {
		t.Fatalf("%d error observations for %d parked writers", nerr, writers)
	}
	// Poisoned consistently: the next append refuses without touching disk.
	if _, err := d.Append(tagBatch(9, 9)); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("post-failure append = %v, want ErrPoisoned", err)
	}

	// Recover the serving log in place, then resend every writer's key.
	var rerr error
	for i := 0; i < 200; i++ {
		if rerr = d.ReopenLog(); rerr == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if rerr != nil {
		t.Fatalf("ReopenLog never succeeded: %v", rerr)
	}
	for i := 0; i < writers; i++ {
		if _, _, err := d.AppendTagged(fmt.Sprintf("w%d", i), 1, tagBatch(i+1, 1)); err != nil {
			t.Fatalf("writer %d resend: %v", i, err)
		}
	}
	// Exactly once end to end: 1 healthy + one instance of each writer's
	// batch, whether its original landed before the poison or its resend
	// did after the reopen.
	if got, want := d.LastSeq(), uint64(1+writers); got != want {
		t.Fatalf("LastSeq = %d, want %d (duplicate or lost appends)", got, want)
	}
	d.AddWriter(-writers)
	close(applyQ)
	if err := <-applierDone; err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// The directory agrees: recovery replays to exactly LastSeq.
	d2, rs, err := RecoverSelective(alg, engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Seq() != uint64(1+writers) {
		t.Fatalf("recovered seq = %d, want %d", d2.Seq(), 1+writers)
	}
	_ = rs
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// dirBytes reads every file of a wal directory, by name.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// TestGroupCommitLibraryAndServingWriteSameBytes: library ProcessBatch and
// serving Group + AppendTagged + ApplyLogged are one append path, so the same
// batches leave byte-identical segment and snapshot files under every fsync
// policy — segment rotation, snapshot retention and log truncation included.
func TestGroupCommitLibraryAndServingWriteSameBytes(t *testing.T) {
	w := testWorkload(31, 64, 12, 10)
	alg := algo.SSSP{Src: 0}
	ecfg := engine.Config{Workers: 1} // one worker: key-edge parents are reproducible
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		dcFor := func(dir string) DurableConfig {
			return DurableConfig{SnapshotEvery: 3,
				Wal: Options{Dir: dir, SegmentBytes: 1 << 10, Policy: policy, FsyncEvery: 2}}
		}
		lib, srv := dcFor(t.TempDir()), dcFor(t.TempDir())

		d, err := NewDurableSelective(graph.FromEdges(w.NumV, w.Initial), alg, ecfg, lib)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range w.Batches {
			if _, err := d.ProcessBatch(context.Background(), b); err != nil {
				t.Fatalf("%v: library batch %d: %v", policy, i, err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		d, err = NewDurableSelective(graph.FromEdges(w.NumV, w.Initial), alg, ecfg, srv)
		if err != nil {
			t.Fatal(err)
		}
		d.Group(nil, nil)
		for i, b := range w.Batches {
			seq, _, err := d.AppendTagged("", 0, b)
			if err != nil {
				t.Fatalf("%v: serving append %d: %v", policy, i, err)
			}
			if _, err := d.ApplyLogged(context.Background(), seq, b); err != nil {
				t.Fatalf("%v: serving apply %d: %v", policy, i, err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		want, got := dirBytes(t, lib.Wal.Dir), dirBytes(t, srv.Wal.Dir)
		segs, snaps := 0, 0
		for name, b := range want {
			if !bytes.Equal(got[name], b) {
				t.Fatalf("%v: %s differs between library and serving mode (%d vs %d bytes)", policy, name, len(b), len(got[name]))
			}
			if strings.HasSuffix(name, ".seg") {
				segs++
			} else if strings.HasSuffix(name, ".snap") {
				snaps++
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%v: serving mode left %d files, library mode %d", policy, len(got), len(want))
		}
		if segs == 0 || snaps == 0 {
			t.Fatalf("%v: compared %d segments and %d snapshots; want both", policy, segs, snaps)
		}
	}
}

// TestGroupCommitRefusesProcessBatchAfterGroup: once Group has put the log in
// serving mode, ProcessBatch is an error that logs and applies nothing, and
// the next serving append still takes the next sequence.
func TestGroupCommitRefusesProcessBatchAfterGroup(t *testing.T) {
	w := testWorkload(37, 64, 2, 10)
	reg := metrics.NewRegistry()
	dc := DurableConfig{Wal: Options{Dir: t.TempDir(), Policy: FsyncAlways, Metrics: reg}}
	d, err := NewDurableSelective(graph.FromEdges(w.NumV, w.Initial), algo.SSSP{Src: 0}, engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatal(err)
	}
	d.Group(nil, nil)
	if _, err := d.ProcessBatch(context.Background(), w.Batches[0]); err == nil {
		t.Fatal("ProcessBatch ran in serving mode")
	}
	if n := reg.Counter("wal.appends").Value(); n != 0 || d.LastSeq() != 0 || d.Seq() != 0 {
		t.Fatalf("refused ProcessBatch left appends=%d LastSeq=%d Seq=%d, want all 0", n, d.LastSeq(), d.Seq())
	}
	seq, err := d.Append(w.Batches[1])
	if err != nil || seq != 1 {
		t.Fatalf("serving append after the refusal = (%d, %v), want (1, nil)", seq, err)
	}
	if _, err := d.ApplyLogged(context.Background(), seq, w.Batches[1]); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenLogLibraryModeAfterDiskFault is the library twin of
// TestReopenLogRecoversFromDiskFault: an injected ENOSPC on the append path
// refuses that ProcessBatch and poisons the log, ReopenLog swaps in a fresh
// log generation, the refused batch and the rest of the stream then go
// through, and the directory recovers to the oracle. The fault hits the
// frame write (nothing logged) or the fsync after it (a frame logged that
// nothing will apply, which the new base drops).
func TestReopenLogLibraryModeAfterDiskFault(t *testing.T) {
	w := testWorkload(43, 64, 8, 12)
	alg := algo.SSSP{Src: 0}
	for _, site := range []string{"append.write", "append.sync"} {
		inj := NewDiskFaultInjector(syscall.ENOSPC, 0, 0) // count 0: built disarmed
		reg := metrics.NewRegistry()
		dc := DurableConfig{SnapshotEvery: 2,
			Wal: Options{Dir: t.TempDir(), Policy: FsyncAlways, DiskFaults: inj, Metrics: reg}}
		d, err := NewDurableSelective(graph.FromEdges(w.NumV, w.Initial), alg, engine.Config{Workers: 2}, dc)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for i := 0; i < 3; i++ {
			if _, err := d.ProcessBatch(ctx, w.Batches[i]); err != nil {
				t.Fatal(err)
			}
		}
		after := 0 // the next eligible site is batch 3's append.write
		if site == "append.sync" {
			after = 1
		}
		inj.Set(syscall.ENOSPC, after, 1)
		_, err = d.ProcessBatch(ctx, w.Batches[3])
		if !errors.Is(err, syscall.ENOSPC) || !strings.Contains(err.Error(), site) {
			t.Fatalf("%s: armed ProcessBatch = %v, want ENOSPC there", site, err)
		}
		if _, err := d.ProcessBatch(ctx, w.Batches[3]); !errors.Is(err, ErrPoisoned) {
			t.Fatalf("%s: ProcessBatch on the poisoned log = %v, want ErrPoisoned", site, err)
		}
		if d.Seq() != 3 {
			t.Fatalf("%s: refused batches advanced Seq to %d", site, d.Seq())
		}
		if err := d.ReopenLog(); err != nil {
			t.Fatalf("%s: library ReopenLog: %v", site, err)
		}
		if n := reg.Counter("wal.reopens").Value(); n != 1 {
			t.Fatalf("%s: wal.reopens = %d, want 1", site, n)
		}
		for i := 3; i < len(w.Batches); i++ {
			if _, err := d.ProcessBatch(ctx, w.Batches[i]); err != nil {
				t.Fatalf("%s: batch %d after reopen: %v", site, i, err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		verifyRecovery(t, w, alg, dc, len(w.Batches), "library reopen after "+site)
	}
}
