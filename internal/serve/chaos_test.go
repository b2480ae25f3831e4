package serve

import (
	"context"
	"fmt"
	"syscall"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netfault"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/wal"
)

// The end-to-end serving chaos sweep: for each seeded scenario a real server
// (durable engine + WAL) serves a real resuming client through a fault-
// injecting TCP proxy, while the scenario's script kills the daemon outright
// (Abort + recover, the kill -9 shape) and poisons the log with injected
// ENOSPC/EIO at chosen batch boundaries. The whole stack is driven as an
// oracle.Subject, so every batch is checked bit-exact against a from-scratch
// solve, and a seq-accounting invariant turns the oracle into a duplicate
// detector: a single client submitting batches in order must see batch i
// acked at WAL sequence i+1 — a dropped batch or a double apply shifts every
// later ack.

// chaosScenario scripts one seeded run.
type chaosScenario struct {
	seed   uint64
	net    netfault.Config
	killAt map[int]bool // Abort + recover + restart before submitting batch i
	diskAt map[int]int  // arm n disk faults before submitting batch i
}

// chaosStack is the live serving path for one scenario; it implements
// oracle.Instance so oracle.Check can drive it batch by batch.
type chaosStack struct {
	t    *testing.T
	alg  algo.Selective
	ecfg engine.Config
	dc   wal.DurableConfig
	inj  *wal.DiskFaultInjector
	sc   chaosScenario

	d      *wal.Durable
	srv    *Server
	addr   string // the server's fixed address across kill/restart cycles
	proxy  *netfault.Proxy
	client *Client

	batch int
	kills int
}

func newChaosStack(t *testing.T, sc chaosScenario, g *graph.Streaming, alg algo.Selective, ecfg engine.Config) (*chaosStack, error) {
	st := &chaosStack{t: t, alg: alg, ecfg: ecfg, sc: sc,
		inj: wal.NewDiskFaultInjector(syscall.ENOSPC, 0, 0)} // disarmed until scripted
	st.dc = wal.DurableConfig{
		SnapshotEvery: 4,
		DedupWindow:   16,
		Wal: wal.Options{
			Dir:        t.TempDir(),
			Policy:     wal.FsyncAlways,
			DiskFaults: st.inj,
		},
	}
	d, err := wal.NewDurableSelective(g, alg, ecfg, st.dc)
	if err != nil {
		return nil, err
	}
	st.d = d
	srv, err := New(Config{Addr: "127.0.0.1:0", Durable: d, Alg: alg, MaxPending: 8})
	if err != nil {
		return nil, err
	}
	st.srv = srv
	st.addr = srv.Addr()
	st.proxy = netfault.NewProxy(st.addr, sc.net)
	paddr, err := st.proxy.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// The first hello can itself be hit by an injected reset; dialing retries
	// the way a real application would.
	opts := ClientOptions{
		ClientID:    fmt.Sprintf("chaos-%d", sc.seed),
		Seed:        sc.seed,
		DialTimeout: 2 * time.Second,
		OpTimeout:   2 * time.Second,
		RetryBudget: 500,
		BackoffBase: 200 * time.Microsecond,
		BackoffMax:  5 * time.Millisecond,
	}
	for attempt := 0; ; attempt++ {
		st.client, err = DialOpts(paddr.String(), opts)
		if err == nil {
			break
		}
		if attempt > 100 {
			return nil, fmt.Errorf("chaos dial never succeeded: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	return st, nil
}

// killRestart is the scenario's kill -9: abort the server without any final
// fsync/snapshot, recover the directory, and bind a fresh server on the same
// address so the proxy's target stays valid and the client's redial lands on
// the reborn daemon.
func (st *chaosStack) killRestart() error {
	st.srv.Abort()
	st.kills++
	st.inj.Clear() // scripted faults target appends, not the recovery itself
	d2, rs, err := wal.RecoverSelective(st.alg, st.ecfg, st.dc)
	if err != nil {
		return fmt.Errorf("recover after kill: %w", err)
	}
	if v := oracle.CheckReplay("serving/chaos", rs.SnapshotSeq, d2.Seq(), rs.Replayed); v != nil {
		return v
	}
	var srv2 *Server
	for attempt := 0; ; attempt++ {
		srv2, err = New(Config{Addr: st.addr, Durable: d2, Alg: st.alg, MaxPending: 8})
		if err == nil {
			break
		}
		if attempt > 100 {
			return fmt.Errorf("rebind %s after kill: %w", st.addr, err)
		}
		time.Sleep(time.Millisecond)
	}
	st.d, st.srv = d2, srv2
	return nil
}

// ProcessBatch runs the scenario script for this batch index, submits the
// batch through the resuming client, and enforces the exactly-once ledger:
// with one client submitting in order, batch i must be acked at WAL seq i+1
// whether its ack came from a fresh append, a dedup hit after a resend, or a
// retry across a degraded window — any duplicate apply or dropped batch
// breaks the equality for every batch after it.
func (st *chaosStack) ProcessBatch(b graph.Batch) error {
	i := st.batch
	st.batch++
	if st.sc.killAt[i] {
		if err := st.killRestart(); err != nil {
			return err
		}
	}
	if n := st.sc.diskAt[i]; n > 0 {
		st.inj.Set(syscall.EIO, 0, n)
	}
	seq, err := st.client.IngestRetry(b)
	if err != nil {
		return fmt.Errorf("batch %d: %w", i, err)
	}
	if seq != uint64(i+1) {
		return fmt.Errorf("exactly-once violated: batch %d acked at wal seq %d, want %d", i, seq, i+1)
	}
	return st.await(seq)
}

// await blocks until the (possibly restarted) engine has applied through seq;
// with the single synchronous client nothing else is in flight afterwards, so
// Values reads a quiescent batch boundary.
func (st *chaosStack) await(seq uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	for st.d.Seq() < seq {
		if time.Now().After(deadline) {
			return fmt.Errorf("applier stuck: applied %d, want %d", st.d.Seq(), seq)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

func (st *chaosStack) Values() []float64 { return st.d.Eng.Values() }

// close tears the scenario's stack down; the final state was already
// validated batch-by-batch, so teardown errors from a scripted fault that
// never got exercised are tolerated.
func (st *chaosStack) close() {
	st.client.Close()
	st.proxy.Close()
	st.srv.Abort()
}

// servingSubject adapts the whole serving path to the oracle. It declares
// Convergence and RefinementFloor (the selective regime's per-batch checks);
// WorkerBitExact is deliberately absent — it would stand up three more full
// serving stacks per scenario for a property the engine suite already proves.
type servingSubject struct {
	t    *testing.T
	alg  algo.Selective
	sc   chaosScenario
	last *chaosStack
}

func (s *servingSubject) Name() string { return fmt.Sprintf("serving/%s-chaos", s.alg.Name()) }
func (s *servingSubject) Declared() oracle.Guarantee {
	return oracle.Convergence | oracle.RefinementFloor
}
func (s *servingSubject) Tolerance() float64       { return 0 }
func (s *servingSubject) Symmetric() bool          { return s.alg.Symmetric() }
func (s *servingSubject) Dim() int                 { return 1 }
func (s *servingSubject) Better(a, b float64) bool { return s.alg.Better(a, b) }

func (s *servingSubject) New(g *graph.Streaming, cfg engine.Config) (oracle.Instance, error) {
	st, err := newChaosStack(s.t, s.sc, g, s.alg, cfg)
	if err != nil {
		return nil, err
	}
	s.last = st
	return st, nil
}

func (s *servingSubject) Reference(g *graph.Streaming) []float64 {
	vals, _ := algo.SolveSelective(g, s.alg)
	return vals
}

// buildScenario draws one seeded fault mix: a network fault profile for the
// proxy plus scripted daemon kills and disk-fault windows at batch indices.
func buildScenario(seed uint64, batches int) chaosScenario {
	r := rng.New(rng.Mix64(seed*0x9e3779b97f4a7c15 + 1))
	sc := chaosScenario{seed: seed, killAt: map[int]bool{}, diskAt: map[int]int{}}
	sc.net = netfault.Config{
		Seed:        seed,
		ResetProb:   float64(r.Uint64n(7)) / 100,  // 0–6% per I/O op
		PartialProb: float64(r.Uint64n(5)) / 100,  // 0–4%
		DelayProb:   float64(r.Uint64n(11)) / 100, // 0–10%
		MaxDelay:    time.Duration(1+r.Uint64n(2000)) * time.Microsecond,
		MaxFaults:   int64(2 + r.Uint64n(7)),
	}
	for k := uint64(0); k < r.Uint64n(3); k++ { // 0–2 kills
		sc.killAt[int(r.Uint64n(uint64(batches)))] = true
	}
	for k := uint64(0); k < r.Uint64n(3); k++ { // 0–2 disk-fault windows
		sc.diskAt[int(r.Uint64n(uint64(batches)))] = 1 + int(r.Uint64n(2))
	}
	return sc
}

// TestServingChaosSweep is the tentpole validation: >=100 seeded scenarios of
// (network fault x disk fault x kill -9 x client resume), every batch checked
// bit-exact against the single-shot oracle, every ack audited for duplicate
// application. Workloads carry ~30% deletions, so the per-batch convergence
// check is the strong form (no refinement-monotonicity escape hatch).
func TestServingChaosSweep(t *testing.T) {
	scenarios := 100
	if testing.Short() {
		scenarios = 10
	}
	const batches = 8
	alg := algo.SSSP{Src: 0}
	var kills, redials, dupAcks, resets, delays int
	var diskFired int64
	for seed := uint64(1); seed <= uint64(scenarios); seed++ {
		sc := buildScenario(seed, batches)
		dcfg := gen.TestDataset(seed)
		w := gen.BuildWorkload(dcfg.NumV, gen.Generate(dcfg), gen.StreamConfig{
			InitialFraction: 0.5,
			DeleteRatio:     0.3,
			BatchSize:       12,
			NumBatches:      batches,
			Seed:            seed,
		})
		sub := &servingSubject{t: t, alg: alg, sc: sc}
		rep := oracle.Check(sub, oracle.Convergence|oracle.RefinementFloor, engine.Config{Workers: 2}, w)
		st := sub.last
		if err := rep.Err(); err != nil {
			if st != nil {
				st.close()
			}
			t.Fatalf("scenario %d (%+v): %v", seed, sc, err)
		}
		if rep.Batches != batches {
			t.Fatalf("scenario %d validated %d/%d batches", seed, rep.Batches, batches)
		}
		// Post-mortem: kill the surviving stack and recover the directory —
		// exactly-once end to end means recovery lands on exactly one apply
		// per acked batch.
		st.client.Close()
		st.proxy.Close()
		st.srv.Abort()
		d2, rs, err := wal.RecoverSelective(alg, engine.Config{Workers: 2}, st.dc)
		if err != nil {
			t.Fatalf("scenario %d: post-mortem recovery: %v", seed, err)
		}
		if v := oracle.CheckReplay(sub.Name(), rs.SnapshotSeq, d2.Seq(), rs.Replayed); v != nil {
			t.Fatalf("scenario %d: %v", seed, v)
		}
		if d2.Seq() != uint64(batches) {
			t.Fatalf("scenario %d: recovered seq %d, want %d (lost or duplicated batch)",
				seed, d2.Seq(), batches)
		}
		if !valsEqual(d2.Eng.Values(), st.Values()) {
			t.Fatalf("scenario %d: recovered values diverge from served values", seed)
		}
		if err := d2.Close(); err != nil {
			t.Fatalf("scenario %d: close recovered engine: %v", seed, err)
		}
		kills += st.kills
		redials += st.client.Redials
		dupAcks += st.client.DupAcks
		resets += int(st.proxy.In.Resets())
		delays += int(st.proxy.In.Delays())
		diskFired += st.inj.Fired()
	}
	t.Logf("chaos sweep: %d scenarios, %d kills, %d disk faults, %d injected resets, %d delays, %d redials, %d dup acks",
		scenarios, kills, diskFired, resets, delays, redials, dupAcks)
	// The sweep must actually have exercised the machinery it validates.
	if kills == 0 || diskFired == 0 || resets == 0 || redials == 0 {
		t.Fatalf("sweep too tame: kills=%d diskFaults=%d resets=%d redials=%d",
			kills, diskFired, resets, redials)
	}
	if dupAcks == 0 {
		t.Log("note: no resend hit the dedup window this sweep (acks all survived the faults)")
	}
}

// TestServeDegradedModeENOSPC pins the degraded-mode contract end to end
// without network noise: an armed ENOSPC flips the server read-only (typed
// RejectDegraded for ingest, reads still answering), the prober brings the
// log back, and the client's retried batch lands exactly once.
func TestServeDegradedModeENOSPC(t *testing.T) {
	alg := algo.SSSP{Src: 0}
	dcfg := gen.TestDataset(77)
	w := gen.BuildWorkload(dcfg.NumV, gen.Generate(dcfg), gen.StreamConfig{
		InitialFraction: 0.5, DeleteRatio: 0.2, BatchSize: 16, NumBatches: 4, Seed: 77,
	})
	inj := wal.NewDiskFaultInjector(syscall.ENOSPC, 0, 0)
	dc := wal.DurableConfig{DedupWindow: 8, Wal: wal.Options{
		Dir: t.TempDir(), Policy: wal.FsyncAlways, DiskFaults: inj,
	}}
	d, err := wal.NewDurableSelective(graph.FromEdges(w.NumV, w.Initial), alg, engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Addr: "127.0.0.1:0", Durable: d, Alg: alg})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := DialOpts(srv.Addr(), ClientOptions{ClientID: "deg", BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	rd, err := DialOpts(srv.Addr(), ClientOptions{Role: RoleQuery, DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	if seq, err := ing.IngestRetry(w.Batches[0]); err != nil || seq != 1 {
		t.Fatalf("healthy ingest = %d, %v", seq, err)
	}
	// The ack only promises the log; the degraded read below wants batch 1
	// published.
	awaitApplied(t, rd, 1)

	// Arm the fault: the raw Ingest path must surface the typed refusal.
	inj.Set(syscall.ENOSPC, 0, 1)
	_, err = ing.Ingest(w.Batches[1])
	re, ok := err.(*RejectError)
	if !ok || re.Code != RejectDegraded || !re.Retryable() {
		t.Fatalf("ingest under ENOSPC = %v, want retryable RejectDegraded", err)
	}
	if !srv.Degraded() {
		t.Fatal("server not degraded after append failure")
	}
	// Reads keep serving the published snapshot while ingest is refused.
	if _, _, seq, err := rd.Get(0); err != nil || seq != 1 {
		t.Fatalf("degraded read = seq %d, %v; want 1, nil", seq, err)
	}

	// CAUTION: Ingest assigned clientSeq 2 to the rejected batch; the retried
	// submission must reuse it (IngestRetry semantics) — here the append
	// never landed, so the resend applies fresh and still gets wal seq 2.
	seq, err := ing.ingestSeq(2, w.Batches[1])
	if err != nil {
		// The prober may not have recovered yet; back off through the typed
		// rejection the way IngestRetry does.
		for attempt := 0; err != nil; attempt++ {
			re, ok := err.(*RejectError)
			if !ok || !re.Retryable() || attempt > 500 {
				t.Fatalf("retry after degraded: %v", err)
			}
			time.Sleep(2 * time.Millisecond)
			seq, err = ing.ingestSeq(2, w.Batches[1])
		}
	}
	if seq != 2 {
		t.Fatalf("retried batch acked seq %d, want 2", seq)
	}
	if srv.Degraded() {
		t.Fatal("server still degraded after successful append")
	}
	// And the rest of the stream flows normally, exactly once each.
	for i := 2; i < len(w.Batches); i++ {
		seq, err := ing.IngestRetry(w.Batches[i])
		if err != nil || seq != uint64(i+1) {
			t.Fatalf("post-recovery batch %d = %d, %v", i, seq, err)
		}
	}
	ref := graph.FromEdges(w.NumV, w.Initial)
	for _, b := range w.Batches {
		ref.ApplyBatch(b)
	}
	want, _ := algo.SolveSelective(ref, alg)
	deadline := time.Now().Add(10 * time.Second)
	for d.Seq() < uint64(len(w.Batches)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !valsEqual(d.Eng.Values(), want) {
		t.Fatal("values after degraded window diverge from the oracle")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServeDegradedModeFsyncFailure is the OTHER degraded sub-case: the
// frame write lands but the fsync fails, so the batch is logged-but-unacked
// and already enqueued for apply. The admission token for such a batch
// belongs to the applier — the session must NOT release it too (a double
// release deadlocked the ingest worker before this was pinned) — and the
// client's retried submission must be acknowledged as a dedup of the
// original append, never applied twice.
func TestServeDegradedModeFsyncFailure(t *testing.T) {
	alg := algo.SSSP{Src: 0}
	dcfg := gen.TestDataset(79)
	w := gen.BuildWorkload(dcfg.NumV, gen.Generate(dcfg), gen.StreamConfig{
		InitialFraction: 0.5, DeleteRatio: 0.2, BatchSize: 16, NumBatches: 4, Seed: 79,
	})
	inj := wal.NewDiskFaultInjector(syscall.ENOSPC, 0, 0)
	dc := wal.DurableConfig{DedupWindow: 8, Wal: wal.Options{
		Dir: t.TempDir(), Policy: wal.FsyncAlways, DiskFaults: inj,
	}}
	d, err := wal.NewDurableSelective(graph.FromEdges(w.NumV, w.Initial), alg, engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Addr: "127.0.0.1:0", Durable: d, Alg: alg})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := DialOpts(srv.Addr(), ClientOptions{ClientID: "deg-sync", BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	if seq, err := ing.IngestRetry(w.Batches[0]); err != nil || seq != 1 {
		t.Fatalf("healthy ingest = %d, %v", seq, err)
	}
	// after=1 lets batch 2's frame write through and fails its fsync: the
	// batch is logged, enqueued, and will be applied — only the ack is lost.
	inj.Set(syscall.ENOSPC, 1, 1)
	_, err = ing.Ingest(w.Batches[1])
	re, ok := err.(*RejectError)
	if !ok || re.Code != RejectDegraded || !re.Retryable() {
		t.Fatalf("ingest under failed fsync = %v, want retryable RejectDegraded", err)
	}
	// The retried submission reuses clientSeq 2 (IngestRetry semantics).
	// Unlike the torn-write case, the original append IS in the log: the
	// resend must come back as a dedup ack for wal seq 2.
	seq, err := ing.ingestSeq(2, w.Batches[1])
	for attempt := 0; err != nil; attempt++ {
		re, ok := err.(*RejectError)
		if !ok || !re.Retryable() || attempt > 500 {
			t.Fatalf("retry after degraded: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
		seq, err = ing.ingestSeq(2, w.Batches[1])
	}
	if seq != 2 {
		t.Fatalf("retried batch acked seq %d, want 2", seq)
	}
	if ing.DupAcks == 0 {
		t.Fatal("resend of a logged-but-unacked batch was not a dedup ack")
	}
	// The rest of the stream flows through the same session: if the worker
	// had double-released the admission token this would hang, not pass.
	for i := 2; i < len(w.Batches); i++ {
		seq, err := ing.IngestRetry(w.Batches[i])
		if err != nil || seq != uint64(i+1) {
			t.Fatalf("post-recovery batch %d = %d, %v", i, seq, err)
		}
	}
	ref := graph.FromEdges(w.NumV, w.Initial)
	for _, b := range w.Batches {
		ref.ApplyBatch(b)
	}
	want, _ := algo.SolveSelective(ref, alg)
	deadline := time.Now().Add(10 * time.Second)
	for d.Seq() < uint64(len(w.Batches)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !valsEqual(d.Eng.Values(), want) {
		t.Fatal("values after a failed-fsync window diverge from the oracle")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
