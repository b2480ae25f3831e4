package dist

// In-process tests for the socket runtime: a real Coordinator listening on
// a loopback TCP port, with RunWorker instances as goroutines. Everything
// crosses real sockets and real WAL files; only process boundaries are
// elided (proc_test.go covers those with actual kill -9).

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netfault"
	"repro/internal/rng"
	"repro/internal/wal"
)

// clusterWorkload is the default stream of the socket, link-level and
// process-level suites: 300 vertices, 30 % deletions, 150-update batches.
func clusterWorkload(seed uint64, batches int) gen.Workload {
	cfg := gen.TestDataset(seed)
	cfg.NumV, cfg.NumE = 300, 2000
	edges := gen.Generate(cfg)
	return gen.BuildWorkload(cfg.NumV, edges, gen.StreamConfig{
		InitialFraction: 0.5, DeleteRatio: 0.3, BatchSize: 150,
		NumBatches: batches, Seed: seed + 1,
	})
}

// deletionHeavyWorkload deletes four edges for every one it adds, so most
// of every batch is key-edge trimming and re-refinement over shadows.
func deletionHeavyWorkload(seed uint64, batches int) gen.Workload {
	cfg := gen.TestDataset(seed)
	cfg.NumV, cfg.NumE = 200, 1500
	edges := gen.Generate(cfg)
	return gen.BuildWorkload(cfg.NumV, edges, gen.StreamConfig{
		InitialFraction: 0.7, DeleteRatio: 0.8, BatchSize: 100,
		NumBatches: batches, Seed: seed + 1,
	})
}

// fastCoordConfig returns timers tight enough that a silent worker is
// declared down in well under a second.
func fastCoordConfig() CoordConfig {
	return CoordConfig{
		Addr:           "127.0.0.1:0",
		FlowCap:        32,
		CkptEvery:      2,
		BatchTimeout:   30 * time.Second,
		HeartbeatEvery: 20 * time.Millisecond,
		PeerTimeout:    400 * time.Millisecond,
	}
}

// testWorker is one in-process worker with crash and restart controls.
// done closes when RunWorker returns, and err then holds its result, so
// any number of waiters can observe the one exit.
type testWorker struct {
	id       int
	dir      string
	cancel   context.CancelFunc
	hardStop chan struct{}
	done     chan struct{}
	err      error
}

// startTestWorker runs one worker with cfg's link timers.
func startTestWorker(cfg CoordConfig, addr, dir string, id int) *testWorker {
	ctx, cancel := context.WithCancel(context.Background())
	tw := &testWorker{
		id: id, dir: dir, cancel: cancel,
		hardStop: make(chan struct{}),
		done:     make(chan struct{}),
	}
	go func() {
		defer close(tw.done)
		tw.err = RunWorker(ctx, WorkerConfig{
			Addr: addr, Dir: dir, ID: id,
			ConnectTimeout: 10 * time.Second,
			HeartbeatEvery: cfg.HeartbeatEvery,
			PeerTimeout:    cfg.PeerTimeout,
			HardStop:       tw.hardStop,
		})
	}()
	return tw
}

// exit waits up to 5 s for the worker goroutine to return and reports its
// error; exited is false on a timeout.
func (tw *testWorker) exit() (exited bool, err error) {
	select {
	case <-tw.done:
		return true, tw.err
	case <-time.After(5 * time.Second):
		return false, nil
	}
}

// crash simulates kill -9 and waits for the worker goroutine to exit.
func (tw *testWorker) crash(t *testing.T) {
	t.Helper()
	close(tw.hardStop)
	if exited, _ := tw.exit(); !exited {
		t.Fatalf("crashed worker %d did not exit", tw.id)
	}
	tw.cancel()
}

// stop cancels the context (SIGTERM path) and waits for a clean exit.
func (tw *testWorker) stop(t *testing.T) {
	t.Helper()
	tw.cancel()
	exited, err := tw.exit()
	if !exited {
		t.Fatalf("worker %d did not stop", tw.id)
	}
	if err != nil {
		t.Fatalf("worker %d: graceful stop returned %v", tw.id, err)
	}
}

// socketHarness holds one running cluster plus the oracle replica.
type socketHarness struct {
	t       *testing.T
	cfg     CoordConfig
	alg     algo.Selective
	coord   *Coordinator
	ref     *graph.Streaming
	workers map[int]*testWorker
	base    string
	reg     *metrics.Registry // the coordinator's dist.* instruments

	logMu sync.Mutex
	log   []string          // the coordinator's progress lines
	onLog func(line string) // sees each line as it is logged (killAt)
}

func newSocketHarness(t *testing.T, alg algo.Selective, w gen.Workload, n int) *socketHarness {
	t.Helper()
	return newSocketHarnessWith(t, fastCoordConfig(), alg, w, n)
}

func newSocketHarnessWith(t *testing.T, cfg CoordConfig, alg algo.Selective, w gen.Workload, n int) *socketHarness {
	t.Helper()
	initial := w.Initial
	if alg.Symmetric() {
		var both []graph.Edge
		for _, e := range initial {
			both = append(both, e, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
		}
		initial = both
	}
	g := graph.FromEdges(w.NumV, initial)
	h := &socketHarness{
		t: t, cfg: cfg, alg: alg,
		ref:     g.Clone(),
		workers: map[int]*testWorker{},
		base:    t.TempDir(),
		reg:     metrics.NewRegistry(),
	}
	cfg.Metrics = h.reg
	cfg.Logf = func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		h.logMu.Lock()
		h.log = append(h.log, line)
		onLog := h.onLog
		h.logMu.Unlock()
		if onLog != nil {
			onLog(line)
		}
	}
	coord, err := NewCoordinator(g, alg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.coord = coord
	for i := 0; i < n; i++ {
		h.startWorker(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := coord.WaitForWorkers(ctx, n); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *socketHarness) workerDir(id int) string {
	return filepath.Join(h.base, fmt.Sprintf("worker-%d", id))
}

func (h *socketHarness) startWorker(id int) *testWorker {
	return h.startWorkerAt(h.coord.Addr(), id)
}

// startWorkerAt starts worker id dialling addr (the coordinator, or a proxy
// in front of it).
func (h *socketHarness) startWorkerAt(addr string, id int) *testWorker {
	tw := startTestWorker(h.cfg, addr, h.workerDir(id), id)
	h.workers[id] = tw
	return tw
}

// rejoin restarts a crashed worker onto its directory once the coordinator
// has dropped it, and waits until n workers are live again.
func (h *socketHarness) rejoin(id, n int) {
	h.t.Helper()
	waitFor(h.t, "the coordinator to drop the crashed worker", func() bool { return h.coord.LiveWorkers() < n })
	h.startWorker(id)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.coord.WaitForWorkers(ctx, n); err != nil {
		h.t.Fatal(err)
	}
}

// runBatch processes one batch and asserts bit-exact agreement with the
// single-machine oracle, then the boundary invariant: every live worker's
// replica equals the coordinator's values and parents.
func (h *socketHarness) runBatch(bi int, b graph.Batch) {
	h.t.Helper()
	if err := h.coord.ProcessBatch(context.Background(), b); err != nil {
		h.t.Fatalf("batch %d: %v", bi, err)
	}
	rb := b
	if h.alg.Symmetric() {
		rb = engine.Symmetrize(b)
	}
	h.ref.ApplyBatch(rb)
	want, _ := algo.SolveSelective(h.ref, h.alg)
	got := h.coord.Values()
	for v := range want {
		if want[v] != got[v] && !(math.IsInf(want[v], 1) && math.IsInf(got[v], 1)) {
			h.t.Fatalf("%s batch %d: vertex %d = %v, want %v", h.alg.Name(), bi, v, got[v], want[v])
		}
	}
	reps, err := h.coord.replicas(10 * time.Second)
	if err != nil {
		h.t.Fatalf("batch %d: collecting the replicas: %v", bi, err)
	}
	parent := h.coord.parents()
	for id, r := range reps {
		if !slices.Equal(r.Vals, got) || !slices.Equal(r.Parent, parent) {
			h.t.Fatalf("batch %d: worker %d's replica differs from the coordinator's boundary state", bi, id)
		}
	}
}

// rejectBatch hands the coordinator a malformed batch and asserts it is
// refused with the typed error naming update badIndex, before anything is
// applied or sequenced.
func (h *socketHarness) rejectBatch(bad graph.Batch, badIndex int) {
	h.t.Helper()
	seq, vals := h.coord.BoundarySeq(), h.coord.Values()
	err := h.coord.ProcessBatch(context.Background(), bad)
	var be *graph.BatchError
	if !errors.As(err, &be) || be.Index != badIndex {
		h.t.Fatalf("want *graph.BatchError at index %d, got %v", badIndex, err)
	}
	if got := h.coord.BoundarySeq(); got != seq {
		h.t.Fatalf("rejected batch advanced the boundary seq %d -> %d", seq, got)
	}
	if !slices.Equal(h.coord.Values(), vals) {
		h.t.Fatal("rejected batch changed vertex values")
	}
}

// logged reports whether the coordinator logged a line containing every
// one of subs.
func (h *socketHarness) logged(subs ...string) bool {
	h.logMu.Lock()
	defer h.logMu.Unlock()
	for _, l := range h.log {
		all := true
		for _, sub := range subs {
			all = all && strings.Contains(l, sub)
		}
		if all {
			return true
		}
	}
	return false
}

// killAt hard-stops tws when the coordinator starts batch seq: it logs
// "batch <seq> epoch" right after the batch's BatchStart frames go out, with
// its lock held, so the kill lands inside the batch however short the
// batch is. The returned channel closes once every victim has exited.
func (h *socketHarness) killAt(seq int, tws ...*testWorker) <-chan struct{} {
	dead := make(chan struct{})
	prefix := fmt.Sprintf("coord: batch %d epoch ", seq)
	var once sync.Once
	h.logMu.Lock()
	h.onLog = func(line string) {
		if strings.HasPrefix(line, prefix) {
			once.Do(func() {
				for _, tw := range tws {
					close(tw.hardStop)
				}
				go func() {
					for _, tw := range tws {
						<-tw.done
					}
					close(dead)
				}()
			})
		}
	}
	h.logMu.Unlock()
	return dead
}

// requireRerun fails the test unless the coordinator re-ran a batch on a
// changed membership.
func (h *socketHarness) requireRerun() {
	h.t.Helper()
	if n := h.reg.Counter("dist.rebalances").Value(); n < 1 {
		h.t.Fatalf("dist.rebalances = %d: no batch re-ran, the kill missed the batch", n)
	}
}

// close byes the cluster. Every worker still running when it starts must
// read the bye and exit cleanly.
func (h *socketHarness) close() {
	running := map[*testWorker]bool{}
	for _, tw := range h.workers {
		select {
		case <-tw.done:
		default:
			running[tw] = true
		}
	}
	h.coord.Close()
	for _, tw := range h.workers {
		exited, err := tw.exit()
		tw.cancel()
		if running[tw] && (!exited || err != nil) {
			h.t.Errorf("worker %d after the coordinator's bye: exited=%v, err=%v", tw.id, exited, err)
		}
	}
	if h.t.Failed() {
		h.logMu.Lock()
		h.t.Logf("coordinator log:\n%s", strings.Join(h.log, "\n"))
		h.logMu.Unlock()
	}
}

func TestSocketClusterMatchesOracle(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		w       gen.Workload
	}{
		{"workers=1", 1, clusterWorkload(91, 4)},
		{"workers=2", 2, clusterWorkload(92, 4)},
		{"workers=3", 3, clusterWorkload(93, 4)},
		{"deletion-heavy", 3, deletionHeavyWorkload(84, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newSocketHarness(t, algo.SSSP{Src: 0}, tc.w, tc.workers)
			defer h.close()
			for bi, b := range tc.w.Batches {
				if bi == 1 {
					// A valid update followed by an out-of-range one: the
					// valid prefix must not reach the graph either, or the
					// remaining batches diverge from the oracle replica.
					h.rejectBatch(graph.Batch{b[0], {Edge: graph.Edge{Src: 0, Dst: uint32(tc.w.NumV) + 7, W: 1}}}, 1)
				}
				h.runBatch(bi, b)
			}
		})
	}
}

func TestSocketClusterAlgorithms(t *testing.T) {
	algs := []algo.Selective{algo.BFS{Src: 0}, algo.SSWP{Src: 0}, algo.CC{}}
	for _, a := range algs {
		t.Run(a.Name(), func(t *testing.T) {
			w := clusterWorkload(97, 3)
			h := newSocketHarness(t, a, w, 2)
			defer h.close()
			for bi, b := range w.Batches {
				h.runBatch(bi, b)
			}
		})
	}
}

// TestSocketCheckpointFramesOnDisk asserts that worker checkpoints on disk
// are wal snapshots carrying KindDistCheckpoint state frames, written by
// each worker on its own at the cadence its welcome named.
func TestSocketCheckpointFramesOnDisk(t *testing.T) {
	// CkptEvery=2: the BatchStart of seq 3 checkpoints seq 2; seq 4 would be
	// checkpointed by a fifth batch, and the bye writes none.
	w := clusterWorkload(101, 4)
	h := newSocketHarness(t, algo.SSSP{Src: 0}, w, 2)
	defer h.close()
	for bi, b := range w.Batches {
		h.runBatch(bi, b)
	}
	for id := 0; id < 2; id++ {
		sd, err := wal.LoadSnapshot(h.workerDir(id), wal.KindDistCheckpoint)
		if err != nil {
			t.Fatalf("worker %d checkpoint: %v", id, err)
		}
		if sd.Seq != 2 || sd.Kind != wal.KindDistCheckpoint || len(sd.Vals) != h.ref.NumVertices() {
			t.Fatalf("worker %d checkpoint: seq=%d kind=%d vals=%d", id, sd.Seq, sd.Kind, len(sd.Vals))
		}
	}
}

// ckptFixture writes one real worker snapshot and returns its bytes with
// the seq and vertex count it holds.
func ckptFixture(t testing.TB) (orig []byte, seq uint64, numV int) {
	t.Helper()
	w := clusterWorkload(909, 0)
	g := graph.FromEdges(w.NumV, w.Initial)
	vals, parent := algo.SolveSelective(g, algo.SSSP{Src: 0})
	dir := t.TempDir()
	seq = 6
	if err := wal.WriteWorkerSnapshot(wal.Options{Dir: dir}, seq, g, vals, parent); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(filepath.Join(dir, wal.SnapName(seq)))
	if err != nil {
		t.Fatal(err)
	}
	return orig, seq, w.NumV
}

// ckptCorpus is the damage a worker snapshot can arrive with: a spread of
// truncation points, 200 seeded single-bit flips, bytes after the footer,
// a second footer, and a header declaring one vertex more than the state
// frame holds. internal/wal's TestSnapshotRejectsCorruption holds every
// snapshot kind to rejecting the same corpus.
func ckptCorpus(t testing.TB, orig []byte, numV int) map[string][]byte {
	t.Helper()
	corpus := map[string][]byte{}
	for cut := 0; cut < len(orig); cut += 1 + len(orig)/199 {
		corpus[fmt.Sprintf("truncated at %d/%d", cut, len(orig))] = orig[:cut]
	}
	r := rng.New(4242)
	for i := 0; i < 200; i++ {
		mut := append([]byte(nil), orig...)
		mut[r.Intn(len(mut))] ^= byte(1 << r.Intn(8))
		corpus[fmt.Sprintf("bit flip %d", i)] = mut
	}
	corpus["trailing bytes"] = append(append([]byte(nil), orig...), 0xde, 0xad)

	// Re-frame the same edges and state under a header that claims numV+1.
	f := bytes.NewReader(orig)
	var frames [][]byte
	for {
		_, payload, err := wal.ReadFrame(f)
		if err != nil {
			break
		}
		frames = append(frames, payload)
	}
	if len(frames) != 4 {
		t.Fatalf("fixture has %d frames, want 4", len(frames))
	}
	hdr := append([]byte(nil), frames[0]...)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(numV+1))
	var mis []byte
	mis = wal.AppendFrame(mis, wal.KindSnapHeader, hdr)
	mis = wal.AppendFrame(mis, wal.KindSnapEdges, frames[1])
	mis = wal.AppendFrame(mis, wal.KindDistCheckpoint, frames[2])
	mis = wal.AppendFrame(mis, wal.KindSnapFooter, frames[3])
	corpus["vertex-count mismatch"] = mis
	corpus["second footer"] = wal.AppendFrame(append([]byte(nil), orig...), wal.KindSnapFooter, frames[3])
	return corpus
}

// FuzzReadWorkerCkpt: arbitrary bytes as the only snapshot in a worker
// directory never panic the worker's recovery loader, and whatever it
// accepts is internally consistent.
func FuzzReadWorkerCkpt(f *testing.F) {
	orig, seq, numV := ckptFixture(f)
	f.Add(orig)
	for _, mut := range ckptCorpus(f, orig, numV) {
		f.Add(mut)
	}
	// One file per fuzz process, overwritten per input: the target never
	// runs in parallel with itself.
	dir := f.TempDir()
	path := filepath.Join(dir, wal.SnapName(seq))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sd, err := wal.LoadSnapshot(dir, wal.KindDistCheckpoint)
		if err != nil {
			return
		}
		if sd.Seq != seq || len(sd.Vals) != sd.NumV || len(sd.Parent) != sd.NumV {
			t.Fatalf("accepted an inconsistent checkpoint: seq=%d numV=%d vals=%d parent=%d",
				sd.Seq, sd.NumV, len(sd.Vals), len(sd.Parent))
		}
		for _, e := range sd.Edges {
			if int(e.Src) >= sd.NumV || int(e.Dst) >= sd.NumV {
				t.Fatalf("accepted edge %d->%d beyond %d vertices", e.Src, e.Dst, sd.NumV)
			}
		}
	})
}

// TestSocketGracefulLeaveAndJoin: a worker leaving via SIGTERM shrinks the
// membership without failing batches; a new worker joining grows it.
func TestSocketGracefulLeaveAndJoin(t *testing.T) {
	w := clusterWorkload(103, 4)
	h := newSocketHarness(t, algo.SSSP{Src: 0}, w, 2)
	defer h.close()
	h.runBatch(0, w.Batches[0])

	h.workers[0].stop(t) // graceful leave: bye + final checkpoint
	h.runBatch(1, w.Batches[1])
	if live := h.coord.LiveWorkers(); live != 1 {
		t.Fatalf("after leave: %d live workers, want 1", live)
	}

	h.startWorker(2) // fresh member
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.coord.WaitForWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	h.runBatch(2, w.Batches[2])
	h.runBatch(3, w.Batches[3])
	if live := h.coord.LiveWorkers(); live != 2 {
		t.Fatalf("after join: %d live workers, want 2", live)
	}
}

// TestSocketFlowlessWorkerTakesOver: with one flow over two workers, worker
// 1 owns nothing until worker 0 leaves, and then starts from its replica
// (graceful leave at a boundary) or from the coordinator's boundary state (a
// kill inside a batch, re-run on the survivor). Either is right only if the
// owner broadcast every change to the flowless member.
func TestSocketFlowlessWorkerTakesOver(t *testing.T) {
	cfg := fastCoordConfig()
	cfg.FlowCap = 1024 // above the 300 vertices: one flow
	t.Run("stop", func(t *testing.T) {
		w := clusterWorkload(103, 6)
		h := newSocketHarnessWith(t, cfg, algo.SSSP{Src: 0}, w, 2)
		defer h.close()
		for bi, b := range w.Batches {
			h.runBatch(bi, b)
			if bi == 2 {
				h.workers[0].stop(t)
			}
		}
	})
	t.Run("kill", func(t *testing.T) {
		w := clusterWorkload(103, 6)
		h := newSocketHarnessWith(t, cfg, algo.SSSP{Src: 0}, w, 2)
		defer h.close()
		victim := h.workers[0]
		dead := h.killAt(4, victim) // batch 3 is seq 4
		for bi, b := range w.Batches {
			h.runBatch(bi, b)
		}
		<-dead
		victim.cancel()
		h.requireRerun()
	})
}

// TestSocketCrashRestartMidBatch kills a worker while a batch is in flight;
// the survivors re-run, the restarted worker recovers from its WAL and
// rejoins, and every batch still matches the oracle bit-exactly.
func TestSocketCrashRestartMidBatch(t *testing.T) {
	// The deletion-heavy stream makes the re-run attempt's trim sets large:
	// the survivors' invalid bits must be rebuilt from the rebroadcast
	// trims over the welcomed boundary state, not left over from the dead
	// attempt.
	for name, w := range map[string]gen.Workload{
		"mixed":          clusterWorkload(107, 5),
		"deletion-heavy": deletionHeavyWorkload(90, 5),
	} {
		t.Run(name, func(t *testing.T) {
			h := newSocketHarness(t, algo.SSSP{Src: 0}, w, 3)
			defer h.close()
			h.runBatch(0, w.Batches[0])
			h.runBatch(1, w.Batches[1])

			victim := h.workers[1]
			dead := h.killAt(3, victim) // batch 2 is seq 3
			h.runBatch(2, w.Batches[2])
			<-dead
			victim.cancel()
			h.requireRerun()

			// Restart with the same directory and id: WAL recovery + rejoin.
			h.rejoin(1, 3)
			h.runBatch(3, w.Batches[3])
			h.runBatch(4, w.Batches[4])
		})
	}
}

// TestSocketAllWorkersDie kills the whole membership mid-batch; restarted
// processes must be admitted into the in-flight batch and finish it.
func TestSocketAllWorkersDie(t *testing.T) {
	w := clusterWorkload(109, 3)
	h := newSocketHarness(t, algo.SSSP{Src: 0}, w, 2)
	defer h.close()
	h.runBatch(0, w.Batches[0])

	w0, w1 := h.workers[0], h.workers[1]
	dead := h.killAt(2, w0, w1) // batch 1 is seq 2
	respawned := make(chan struct{})
	go func() {
		defer close(respawned)
		<-dead
		// Respawn both; the coordinator is still inside ProcessBatch.
		h.startWorker(0)
		h.startWorker(1)
	}()
	h.runBatch(1, w.Batches[1])
	<-respawned // h.workers is written by the respawn; order it before close()
	w0.cancel()
	w1.cancel()
	h.requireRerun()
	h.runBatch(2, w.Batches[2])
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.coord.WaitForWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
}

// TestSocketChaosSeeded is the in-process chaos loop: random mid-batch
// kill -9s with random restart delays across a longer stream, every batch
// checked against the oracle. Deterministically seeded.
func TestSocketChaosSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos loop is slow under -short")
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w := clusterWorkload(uint64(120+seed), 6)
			const n = 3
			h := newSocketHarness(t, algo.SSSP{Src: 0}, w, n)
			defer h.close()
			for bi, b := range w.Batches {
				var crashed *testWorker
				if bi > 0 && rng.Intn(2) == 0 {
					crashed = h.workers[rng.Intn(n)]
					delay := time.Duration(rng.Intn(4)) * time.Millisecond
					go func() {
						time.Sleep(delay)
						close(crashed.hardStop)
					}()
				}
				h.runBatch(bi, b)
				if crashed != nil {
					<-crashed.done
					crashed.cancel()
					h.rejoin(crashed.id, n)
				}
			}
		})
	}
}

// TestSocketMembershipChurnSweep is the seeded membership-churn loop for the
// multi-process runtime: between batches the scenario gracefully retires
// members, crashes them outright, restarts crashed ids onto their old WAL
// directories, and admits brand-new members under fresh ids — with at least
// one worker always live — and every batch must still match the
// single-machine oracle bit-exactly.
func TestSocketMembershipChurnSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("membership churn sweep is slow under -short")
	}
	for _, seed := range []int64{11, 12, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w := clusterWorkload(uint64(140+seed), 8)
			h := newSocketHarness(t, algo.SSSP{Src: 0}, w, 2)
			defer h.close()
			live := map[int]bool{0: true, 1: true}
			var crashed []int // dead ids whose WAL dirs await a restart
			nextID := 2
			pick := func() int {
				ids := make([]int, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				return ids[rng.Intn(len(ids))]
			}
			admit := func(id int) {
				h.startWorker(id)
				live[id] = true
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := h.coord.WaitForWorkers(ctx, len(live)); err != nil {
					t.Fatal(err)
				}
			}
			stops, crashes, joins, restarts := 0, 0, 0, 0
			for bi, b := range w.Batches {
				if bi > 0 {
					switch action := rng.Intn(4); {
					case action == 0 && len(live) > 1: // graceful leave (bye + final checkpoint)
						id := pick()
						h.workers[id].stop(t)
						delete(h.workers, id) // already reaped
						delete(live, id)
						stops++
					case action == 1 && len(live) > 1: // kill -9; the coordinator sees EOF
						id := pick()
						h.workers[id].crash(t)
						delete(h.workers, id)
						delete(live, id)
						crashed = append(crashed, id)
						crashes++
					case action == 2: // brand-new member under a fresh id
						admit(nextID)
						nextID++
						joins++
					case action == 3 && len(crashed) > 0: // restart a crashed id onto its WAL
						id := crashed[len(crashed)-1]
						crashed = crashed[:len(crashed)-1]
						admit(id)
						restarts++
					}
				}
				h.runBatch(bi, b)
			}
			if got := h.coord.LiveWorkers(); got != len(live) {
				t.Fatalf("final membership: coordinator sees %d live, want %d", got, len(live))
			}
			t.Logf("churn seed %d: %d graceful leaves, %d crashes, %d fresh joins, %d restarts, %d final members",
				seed, stops, crashes, joins, restarts, len(live))
			if stops+crashes+joins+restarts == 0 {
				t.Fatal("sweep exercised no membership churn")
			}
		})
	}
}

// TestSocketWorkerThroughFaultProxy parks a netfault proxy between the
// coordinator and one worker's dial address — no dist code changes, the
// worker just dials the proxy — and oracle-checks every batch with seeded
// delays jittering the link. The mix is delay-only (delays never spend the
// fault budget, so they inject for the whole run) and MaxDelay stays far
// under PeerTimeout so the link never declares the worker dead: the test
// pins down that a slow, jittery network path costs no membership and
// reorders nothing.
func TestSocketWorkerThroughFaultProxy(t *testing.T) {
	w := clusterWorkload(171, 6)
	h := newSocketHarness(t, algo.SSSP{Src: 0}, w, 1)
	p := netfault.NewProxy(h.coord.Addr(), netfault.Config{
		Seed: 171, DelayProb: 0.35, MaxDelay: 5 * time.Millisecond,
	})
	paddr, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	defer h.close()
	h.startWorkerAt(paddr.String(), 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := h.coord.WaitForWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	for bi, b := range w.Batches {
		h.runBatch(bi, b)
	}
	if got := h.coord.LiveWorkers(); got != 2 {
		t.Fatalf("proxied worker was declared dead: %d live workers, want 2", got)
	}
	if p.In.Delays() == 0 {
		t.Fatal("proxy injected no delays; the fault path was not exercised")
	}
	t.Logf("proxied link: %d injected delays across %d batches", p.In.Delays(), len(w.Batches))
}

// TestSocketLinkResetMakesWorkerLeave: a connection reset is a membership
// event. One worker dials through a proxy that injects one seeded reset;
// its RunWorker returns ErrPeerDown, the coordinator drops it and finishes
// the batch on the survivor, and a restart on the same directory and id
// (through the same proxy, its fault budget now spent) rejoins by WAL
// catch-up, not by a full transfer.
func TestSocketLinkResetMakesWorkerLeave(t *testing.T) {
	w := clusterWorkload(181, 12)
	// Slow heartbeats keep the proxy's I/O count, which the seeded reset
	// is keyed to, mostly message traffic: the reset lands mid-stream.
	cfg := fastCoordConfig()
	cfg.HeartbeatEvery = 200 * time.Millisecond
	cfg.PeerTimeout = 2 * time.Second
	h := newSocketHarnessWith(t, cfg, algo.SSSP{Src: 0}, w, 1)
	p := netfault.NewProxy(h.coord.Addr(), netfault.Config{Seed: 20, ResetProb: 0.02, MaxFaults: 1})
	paddr, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	defer h.close()
	proxied := h.startWorkerAt(paddr.String(), 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := h.coord.WaitForWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	left := -1
	for bi, b := range w.Batches {
		h.runBatch(bi, b) // oracle-equal, the batch the reset lands in included
		if left >= 0 {
			continue
		}
		select {
		case <-proxied.done:
		default:
			continue
		}
		left = bi
		if !errors.Is(proxied.err, ErrPeerDown) {
			t.Fatalf("reset worker's RunWorker returned %v, want ErrPeerDown", proxied.err)
		}
		waitFor(t, "the coordinator to drop the reset worker", func() bool { return h.coord.LiveWorkers() == 1 })
		h.startWorkerAt(paddr.String(), 1)
		if err := h.coord.WaitForWorkers(ctx, 2); err != nil {
			t.Fatal(err)
		}
		if !h.logged("worker 1 admitted", "full=false") {
			t.Fatal("restarted worker was not admitted by WAL catch-up")
		}
	}
	if got := p.In.Resets(); got != 1 {
		t.Fatalf("proxy injected %d resets, want 1", got)
	}
	if left < 0 {
		t.Fatal("the reset did not make the worker leave")
	}
	if left == len(w.Batches)-1 {
		t.Fatal("the reset landed in the last batch: no batch ran after the rejoin")
	}
	if got := h.coord.LiveWorkers(); got != 2 {
		t.Fatalf("after the rejoin: %d live workers, want 2", got)
	}
	t.Logf("the reset worker left by the end of batch %d (a batch re-ran: %v) and rejoined",
		left, h.logged("rerun=true"))
}

// TestSocketDeadWorkerDetectedAtEOF: a worker whose process dies has left
// when its connection ends, not when the peer timeout runs out.
func TestSocketDeadWorkerDetectedAtEOF(t *testing.T) {
	cfg := fastCoordConfig()
	cfg.PeerTimeout = 5 * time.Second
	w := clusterWorkload(191, 3)
	h := newSocketHarnessWith(t, cfg, algo.SSSP{Src: 0}, w, 2)
	defer h.close()
	h.runBatch(0, w.Batches[0])
	h.workers[1].crash(t) // not restarted
	start := time.Now()
	h.runBatch(1, w.Batches[1])
	if el := time.Since(start); el >= time.Second {
		t.Fatalf("the batch after a worker died took %v; its death waited for the %v peer timeout",
			el, cfg.PeerTimeout)
	}
	if got := h.coord.LiveWorkers(); got != 1 {
		t.Fatalf("%d live workers after one of two died, want 1", got)
	}
	h.runBatch(2, w.Batches[2])
}
