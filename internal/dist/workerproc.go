package dist

// Worker process runtime, run by graphfly worker (or in-process by
// tests). A worker holds a full replica of the graph structure and the
// value/parent/trimmed arrays. It is authoritative for the vertices of the
// flows assigned to it; every other entry is a shadow, a possibly stale copy
// refreshed only by shadow records from the owner. It computes its flow
// partition locally from the boundary parents (the partition is a
// deterministic function of the parent array, and every replica's parents
// agree at quiescent boundaries, so worker and coordinator derive identical
// flow tables without shipping them — only the flow -> worker assignment
// travels), runs a fused refine/recompute over its owned vertices, and
// routes everything cross-worker through the coordinator.
//
// Safety under staleness: for a monotonic (selective) algorithm a stale
// shadow is an over-approximation of the owner's true value — never better
// than it — and over-approximations are exactly what trimming already
// produces, so a pull over shadows (refine) or a push filtered against one
// (processVertex) can be pessimistic but never wrong. Three rules keep that
// true. Trim invalidations arrive with the batch start, before any
// processing, and set the invalid bit on every replica. A shadow's invalid
// bit is cleared only by the shadow record that carries the owner's
// post-refinement value, so refine never reads a value whose support was
// deleted. And an owner emits a shadow record on every change of an owned
// vertex, even when no other worker owns a flow, while candidates go to the
// target's owner, so every improvement is eventually delivered, the cluster
// quiesces at the same unique fixpoint as the single-machine engine, and
// every replica equals that fixpoint at the boundary (the socket tests
// check both bit-exact). A worker's batch-start state is that boundary
// replica, or the coordinator's copy of it: a welcome carries it to a
// joining worker, and to every survivor before a re-run attempt.
// Shadow records overwrite unconditionally, so they need the FIFO,
// exactly-once delivery of the worker's one TCP connection (link.go): a
// reordered pair of shadow records for one vertex would leave the older
// value in place.
//
// Durability: a worker directory is a wal directory. Every applied batch is
// fsynced into its log before processing. When the BatchStart of seq+1
// arrives and seq is a multiple of the welcome's CkptEvery, the worker first
// writes a wal snapshot of its boundary state at seq (wal.WriteWorkerSnapshot,
// a KindDistCheckpoint state frame) with the same retention and log
// truncation as the single-node engines; nobody waits for it.
// After a kill -9, the restarted process rebuilds its graph from the newest
// intact worker snapshot, replays the log tail structurally, and presents
// the recovered position in its hello; the coordinator tops it up with the
// missing batch tail and the authoritative boundary state.
//
// Shutdown: a cancelled context (SIGTERM/SIGINT in the binary) sends Bye,
// flushes the WAL, writes a final checkpoint, and exits cleanly. A lost
// connection ends the process's membership instead: RunWorker returns
// ErrPeerDown, and the restart rejoins from the WAL like any crash.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/algo"
	"repro/internal/dflow"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// Addr is the coordinator's address.
	Addr string
	// Dir is the worker's wal directory (log + snapshots); created if
	// missing.
	Dir string
	// ID is the worker id to present; -1 asks the coordinator to assign
	// one. Restarted workers should present their previous id so the
	// coordinator matches the rejoin to the dead membership slot.
	ID int
	// ConnectTimeout bounds the initial dial retry loop (default 30s).
	ConnectTimeout time.Duration
	// Link timer overrides (zero = defaults; must match the coordinator's
	// order of magnitude for heartbeats to make sense).
	HeartbeatEvery time.Duration
	PeerTimeout    time.Duration
	// Metrics receives dist.* and wal.* instruments when non-nil.
	Metrics *metrics.Registry
	// Logf, when non-nil, receives human-readable progress lines.
	Logf func(format string, args ...any)

	// HardStop (tests and chaos harnesses only) simulates kill -9: when it
	// closes, RunWorker returns at once with no bye, no WAL flush beyond
	// what already synced, and no final checkpoint — exactly the state a
	// SIGKILLed process leaves behind.
	HardStop <-chan struct{}
}

func (c WorkerConfig) connectTimeout() time.Duration {
	if c.ConnectTimeout <= 0 {
		return 30 * time.Second
	}
	return c.ConnectTimeout
}

func (c WorkerConfig) linkConfig() linkConfig {
	return linkConfig{HeartbeatEvery: c.HeartbeatEvery, PeerTimeout: c.PeerTimeout}
}

// workerStore is a worker's durable half: the applied-batch log and the
// worker snapshots in one wal directory.
type workerStore struct {
	opts wal.Options
	log  *wal.Log
}

// openWorkerStore opens (creating if needed) the worker's durable state.
func openWorkerStore(dir string, reg *metrics.Registry) (*workerStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: store: %w", err)
	}
	opts := wal.Options{Dir: dir, Metrics: reg}
	log, err := wal.Open(opts)
	if err != nil {
		return nil, err
	}
	return &workerStore{opts: opts, log: log}, nil
}

// appendBatch logs one applied batch under the global boundary seq and
// forces it to disk before the worker acknowledges the boundary.
func (s *workerStore) appendBatch(seq uint64, applied graph.Batch) error {
	if err := s.log.Append(seq, applied); err != nil {
		return err
	}
	return s.log.Sync()
}

// checkpoint writes the worker snapshot at seq, applies retention, and
// truncates the batch log through the older retained snapshot.
func (s *workerStore) checkpoint(seq uint64, g *graph.Streaming, vals []float64, parent []int32) error {
	if err := wal.WriteWorkerSnapshot(s.opts, seq, g, vals, parent); err != nil {
		return err
	}
	trim, ok, err := wal.PruneSnapshots(s.opts)
	if err != nil || !ok {
		return err
	}
	return s.log.TruncateThrough(trim)
}

// wipe discards every durable artifact and reopens the store empty. A
// worker wipes when the coordinator sends a full state transfer: the local
// history diverged too far for the log tail to ever matter again, and a
// stale base under a fresh log would corrupt the next recovery.
func (s *workerStore) wipe() error {
	if err := s.log.Close(); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("dist: store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if err := os.Remove(filepath.Join(s.opts.Dir, e.Name())); err != nil {
			return fmt.Errorf("dist: store: %w", err)
		}
	}
	log, err := wal.Open(s.opts)
	if err != nil {
		return err
	}
	s.log = log
	return nil
}

func (s *workerStore) close() error { return s.log.Close() }

// mailbox is an unbounded FIFO the link reader pushes decoded messages
// into; the worker goroutine drains it. Never blocks the reader.
type mailbox struct {
	mu sync.Mutex
	q  []wmsg
	ch chan struct{}
}

type wmsg struct {
	mt   byte
	body []byte
}

func newMailbox() *mailbox { return &mailbox{ch: make(chan struct{}, 1)} }

func (m *mailbox) push(mt byte, body []byte) {
	m.mu.Lock()
	m.q = append(m.q, wmsg{mt: mt, body: body})
	m.mu.Unlock()
	select {
	case m.ch <- struct{}{}:
	default:
	}
}

func (m *mailbox) popAll() []wmsg {
	m.mu.Lock()
	q := m.q
	m.q = nil
	m.mu.Unlock()
	return q
}

// errByeReceived signals a graceful coordinator-initiated shutdown.
var errByeReceived = errors.New("dist: coordinator sent bye")

// outboxChunk bounds how many records ride in one mtData frame.
const outboxChunk = 1 << 16

// workerRt is the in-memory runtime of one worker process.
type workerRt struct {
	cfg   WorkerConfig
	store *workerStore
	link  *link

	id        int32
	g         *graph.Streaming
	alg       algo.Selective
	flowCap   int
	ckptEvery uint64
	structSeq uint64
	welcomed  bool

	vals    []float64
	parent  []int32
	trimmed []bool
	owner   []int32

	epoch uint64
	seq   uint64

	wl        []uint32
	inbox     []dataRec
	outbox    []dataRec
	processed uint64
	uploaded  uint64
	idleSentP uint64
	idleSentU uint64
	idleSent  bool
}

func (w *workerRt) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// RunWorker connects to the coordinator and processes batches until the
// context is cancelled (graceful shutdown), the coordinator says bye, or
// the connection ends with ErrPeerDown (the caller should exit nonzero so a
// supervisor can restart the process onto its WAL).
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	store, err := openWorkerStore(cfg.Dir, reg)
	if err != nil {
		return err
	}
	defer store.close()

	w := &workerRt{cfg: cfg, store: store, id: int32(cfg.ID)}
	// Local recovery: newest intact worker snapshot + structural WAL replay.
	sd, err := wal.LoadSnapshot(cfg.Dir, wal.KindDistCheckpoint)
	if err != nil && !errors.Is(err, wal.ErrNoSnapshot) {
		return err
	}
	hasBase := sd != nil
	if hasBase {
		w.g = graph.FromEdges(sd.NumV, sd.Edges)
		w.structSeq = sd.Seq
		err := store.log.Replay(sd.Seq, func(seq uint64, b graph.Batch) error {
			w.g.ApplyBatch(b)
			w.structSeq = seq
			return nil
		})
		if err != nil {
			return err
		}
		w.logf("worker: recovered base ckpt seq %d, wal tail through seq %d", sd.Seq, w.structSeq)
	}

	incarnation := uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32
	hello := encodeHello(wireHello{
		ID: w.id, Incarnation: incarnation,
		StructSeq: w.structSeq, HasBase: hasBase,
	})

	lcfg := cfg.linkConfig()
	conn, err := dialRetry(ctx, cfg.Addr, lcfg.peerTimeout(), cfg.connectTimeout())
	if err != nil {
		return fmt.Errorf("dist: worker connect: %w", err)
	}
	if err := wal.WriteFrame(conn, wkHello, hello); err != nil {
		conn.Close()
		return fmt.Errorf("dist: worker hello: %w", err)
	}

	mb := newMailbox()
	downCh := make(chan error, 1)
	w.link = newLink(conn, lcfg, reg.Counter("dist.peer_down"),
		func(mt byte, body []byte) { mb.push(mt, body) },
		func(err error) { downCh <- err })
	defer w.link.close()

	for {
		select {
		case <-ctx.Done():
			return w.shutdown()
		case <-cfg.HardStop:
			return errors.New("dist: worker hard-stopped (simulated crash)")
		case err := <-downCh:
			// Everything read before the connection ended is queued: a bye
			// followed by the coordinator's close is a clean exit.
			if herr := w.handleQueued(mb); herr != nil {
				return exitErr(herr)
			}
			return err
		case <-mb.ch:
			if err := w.handleQueued(mb); err != nil {
				return exitErr(err)
			}
		}
	}
}

// handleQueued handles every queued message in order, stopping at the
// first error (errByeReceived included).
func (w *workerRt) handleQueued(mb *mailbox) error {
	for _, m := range mb.popAll() {
		if err := w.handle(m.mt, m.body); err != nil {
			return err
		}
	}
	return nil
}

// exitErr maps a handling error to RunWorker's result: a bye is a clean
// exit.
func exitErr(err error) error {
	if errors.Is(err, errByeReceived) {
		return nil
	}
	return err
}

// dialRetry dials until success, ctx cancellation, or the timeout — a
// worker often starts before the coordinator's listener is up.
func dialRetry(ctx context.Context, addr string, dialTimeout, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	d := net.Dialer{Timeout: dialTimeout}
	for {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// shutdown is the graceful exit path: announce (the bye is drained to the
// coordinator's close, see link.shutdown), final checkpoint.
func (w *workerRt) shutdown() error {
	w.link.shutdown(encodeReason(mtBye, "worker shutting down"))
	if w.welcomed {
		if err := w.store.checkpoint(w.structSeq, w.g, w.vals, w.parent); err != nil {
			return err
		}
	}
	w.logf("worker %d: graceful shutdown at seq %d", w.id, w.structSeq)
	return nil
}

func (w *workerRt) handle(mt byte, body []byte) error {
	if !w.welcomed && mt != mtWelcome && mt != mtBye && mt != mtJoinReject {
		return fmt.Errorf("dist: worker got message %d before welcome", mt)
	}
	switch mt {
	case mtWelcome:
		m, err := decodeWelcome(body)
		if err != nil {
			return err
		}
		return w.handleWelcome(m)
	case mtBatchStart:
		m, err := decodeBatchStart(body)
		if err != nil {
			return err
		}
		return w.handleBatchStart(m)
	case mtData:
		m, err := decodeData(body)
		if err != nil {
			return err
		}
		return w.handleData(m)
	case mtCollect:
		m, err := decodeCollect(body)
		if err != nil {
			return err
		}
		return w.handleCollect(m)
	case mtJoinReject:
		reason, _ := decodeReason(body)
		return fmt.Errorf("dist: join rejected: %s", reason)
	case mtBye:
		return errByeReceived
	default:
		return nil // unknown message: ignore for forward compatibility
	}
}

// handleWelcome installs the transferred state: a full graph dump (fresh or
// divergent worker — the local store is wiped and re-based), the batch tail
// the local WAL was missing, or no structure at all (a caught-up rejoin, or
// a survivor about to re-run the in-flight batch) — and in every case the
// coordinator's boundary values and parents.
func (w *workerRt) handleWelcome(m wireWelcome) error {
	alg, err := selectiveByName(m.AlgName, m.Source)
	if err != nil {
		return err
	}
	w.alg = alg
	w.id = m.ID
	w.flowCap = int(m.FlowCap)
	w.ckptEvery = uint64(m.CkptEvery)
	if m.Full {
		if err := w.store.wipe(); err != nil {
			return err
		}
		w.g = graph.FromEdges(int(m.NumV), m.Edges)
		w.structSeq = m.BatchSeq
	} else {
		if w.g == nil || w.structSeq+uint64(len(m.Catchup)) != m.BatchSeq {
			return fmt.Errorf("dist: welcome catchup %d batches onto seq %d cannot reach seq %d",
				len(m.Catchup), w.structSeq, m.BatchSeq)
		}
		for i, b := range m.Catchup {
			w.g.ApplyBatch(b)
			if err := w.store.appendBatch(w.structSeq+1+uint64(i), b); err != nil {
				return err
			}
		}
		w.structSeq = m.BatchSeq
	}
	if len(m.Vals) != w.g.NumVertices() || len(m.Parent) != w.g.NumVertices() {
		return fmt.Errorf("dist: welcome state arrays (%d/%d) disagree with %d vertices",
			len(m.Vals), len(m.Parent), w.g.NumVertices())
	}
	w.vals, w.parent = m.Vals, m.Parent
	w.trimmed = make([]bool, w.g.NumVertices())
	if m.Full {
		// Re-base the wiped store so the next restart has a graph to
		// recover from even before its first periodic checkpoint.
		if err := w.store.checkpoint(w.structSeq, w.g, w.vals, w.parent); err != nil {
			return err
		}
	}
	w.welcomed = true
	w.logf("worker %d: welcomed at seq %d (full=%v, catchup=%d, %d vertices)",
		w.id, w.structSeq, m.Full, len(m.Catchup), w.g.NumVertices())
	return nil
}

// handleBatchStart begins one attempt of one batch: checkpoint the boundary
// when one is due, apply structure, derive the flow partition locally,
// install trims, seed addition candidates, and process to local quiescence.
func (w *workerRt) handleBatchStart(m wireBatchStart) error {
	switch m.Seq {
	case w.structSeq + 1:
		// A new batch: the replica is the boundary state at structSeq.
		if s := w.structSeq; s > 0 && w.ckptEvery > 0 && s%w.ckptEvery == 0 {
			if err := w.store.checkpoint(s, w.g, w.vals, w.parent); err != nil {
				return err
			}
		}
		w.g.ApplyBatch(m.Applied)
		if err := w.store.appendBatch(m.Seq, m.Applied); err != nil {
			return err
		}
		w.structSeq = m.Seq
	case w.structSeq:
		// A re-run attempt, or a batch that was already applied when this
		// worker was welcomed into it: the welcome just before it installed
		// the batch-start state.
	default:
		return fmt.Errorf("dist: batch-start seq %d does not follow local seq %d", m.Seq, w.structSeq)
	}

	w.epoch = m.Epoch
	w.seq = m.Seq
	w.inbox = w.inbox[:0]
	w.wl = w.wl[:0]
	w.outbox = w.outbox[:0]
	w.processed, w.uploaded = 0, 0
	w.idleSent = false

	// Derive the flow table locally; the assignment length is the
	// cross-check that coordinator and worker computed the same partition.
	part := dflow.NewPartitionFromParents(w.parent, w.flowCap)
	if part.NumFlows() != len(m.Assign) {
		return fmt.Errorf("dist: local partition has %d flows, assignment has %d — replica divergence",
			part.NumFlows(), len(m.Assign))
	}
	if len(w.owner) != w.g.NumVertices() {
		w.owner = make([]int32, w.g.NumVertices())
	}
	for f := int32(0); int(f) < part.NumFlows(); f++ {
		for _, v := range part.Members(f) {
			w.owner[v] = m.Assign[f]
		}
	}

	// Trim invalidations: flags everywhere, refinement work for the owner.
	for _, x := range m.Trimmed {
		if int(x) >= len(w.trimmed) {
			return fmt.Errorf("dist: trimmed vertex %d out of range", x)
		}
		w.trimmed[x] = true
		if w.owner[x] == w.id {
			w.wl = append(w.wl, x)
		}
	}
	// Addition candidates from owned, untrimmed sources.
	for _, u := range m.Applied {
		if u.Del || w.owner[u.Src] != w.id || w.trimmed[u.Src] {
			continue
		}
		cand := w.alg.Propagate(w.vals[u.Src], u.W)
		rec := dataRec{V: u.Dst, Parent: int32(u.Src), Val: cand}
		if w.owner[u.Dst] == w.id {
			w.inbox = append(w.inbox, rec)
		} else {
			w.outbox = append(w.outbox, rec)
		}
	}
	w.drainAndReport()
	return nil
}

func (w *workerRt) handleData(m wireData) error {
	if m.Epoch != w.epoch {
		return nil // stale attempt
	}
	w.processed += uint64(len(m.Recs))
	w.inbox = append(w.inbox, m.Recs...)
	w.drainAndReport()
	return nil
}

func (w *workerRt) handleCollect(m wireCollect) error {
	if m.Epoch != w.epoch || m.Seq != w.seq {
		return nil
	}
	return w.link.Send(encodeCollectReply(wireCollectReply{Epoch: m.Epoch, Seq: m.Seq, Vals: w.vals, Parent: w.parent}))
}

// drainAndReport processes until the inbox and worklist are empty, flushes
// the outbox upward, and reports idleness with the quiescence counters.
func (w *workerRt) drainAndReport() {
	for len(w.inbox) > 0 || len(w.wl) > 0 {
		inbox := w.inbox
		w.inbox = nil
		for _, r := range inbox {
			w.applyRec(r)
		}
		for head := 0; head < len(w.wl); head++ {
			w.processVertex(w.wl[head])
		}
		w.wl = w.wl[:0]
	}
	w.flushOutbox()
	if !w.idleSent || w.idleSentP != w.processed || w.idleSentU != w.uploaded {
		w.idleSent, w.idleSentP, w.idleSentU = true, w.processed, w.uploaded
		w.link.Send(encodeIdle(wireIdle{
			Epoch: w.epoch, Seq: w.seq, Processed: w.processed, Uploaded: w.uploaded,
		}))
	}
}

// applyRec handles one inbound record: a shadow refresh, or a candidate
// for an owned vertex.
func (w *workerRt) applyRec(r dataRec) {
	if int(r.V) >= len(w.vals) {
		return
	}
	if r.Shadow {
		// Shadow refresh: unconditional overwrite + revalidation, then
		// re-relax owned out-neighbours of the refreshed vertex. The key
		// edge rides along so that if ownership migrates at the next
		// repartition, the new owner reports correct dependence information.
		w.vals[r.V] = r.Val
		w.parent[r.V] = r.Parent
		w.trimmed[r.V] = false
		for _, h := range w.g.Out(r.V) {
			if w.owner[h.To] == w.id {
				cand := w.alg.Propagate(r.Val, h.W)
				if w.trimmed[h.To] {
					w.refine(h.To)
				}
				if w.alg.Better(cand, w.vals[h.To]) {
					w.update(h.To, cand, int32(r.V))
				}
			}
		}
		return
	}
	if w.trimmed[r.V] {
		w.refine(r.V)
	}
	if w.alg.Better(r.Val, w.vals[r.V]) {
		w.update(r.V, r.Val, r.Parent)
	}
}

// processVertex relaxes the out-edges of one changed owned vertex: owned
// targets are updated in place; a remote target gets a candidate only when
// the local (possibly stale) shadow says it could help.
func (w *workerRt) processVertex(v uint32) {
	if w.trimmed[v] {
		w.refine(v)
	}
	uVal := w.vals[v]
	for _, h := range w.g.Out(v) {
		cand := w.alg.Propagate(uVal, h.W)
		t := h.To
		if w.owner[t] == w.id {
			if w.trimmed[t] {
				w.refine(t)
			}
			if w.alg.Better(cand, w.vals[t]) {
				w.update(t, cand, int32(v))
			}
		} else if w.trimmed[t] || w.alg.Better(cand, w.vals[t]) {
			w.outbox = append(w.outbox, dataRec{V: t, Parent: int32(v), Val: cand})
		}
	}
}

// refine resets an owned trimmed vertex from its local (possibly stale,
// always safe) view: the best of the algorithm's base value and a pull over
// the untrimmed in-neighbours. It never reads the vertex's own old value.
func (w *workerRt) refine(v uint32) {
	best := w.alg.Base(v)
	bestParent := int32(-1)
	for _, h := range w.g.In(v) {
		if w.trimmed[h.To] {
			continue
		}
		cand := w.alg.Propagate(w.vals[h.To], h.W)
		if w.alg.Better(cand, best) {
			best = cand
			bestParent = int32(h.To)
		}
	}
	w.vals[v] = best
	w.parent[v] = bestParent
	w.trimmed[v] = false
	w.wl = append(w.wl, v)
	w.broadcastShadow(v)
}

// update improves an owned vertex and broadcasts the change.
func (w *workerRt) update(v uint32, val float64, parent int32) {
	w.vals[v] = val
	w.parent[v] = parent
	w.wl = append(w.wl, v)
	w.broadcastShadow(v)
}

// broadcastShadow emits one shadow record; the coordinator fans it out to
// every other worker, whether or not it owns a flow.
func (w *workerRt) broadcastShadow(v uint32) {
	w.outbox = append(w.outbox, dataRec{V: v, Parent: w.parent[v], Val: w.vals[v], Shadow: true})
}

// flushOutbox ships accumulated records to the coordinator in bounded
// chunks and advances the uploaded counter.
func (w *workerRt) flushOutbox() {
	for len(w.outbox) > 0 {
		n := len(w.outbox)
		if n > outboxChunk {
			n = outboxChunk
		}
		chunk := w.outbox[:n]
		if err := w.link.Send(encodeData(wireData{Epoch: w.epoch, Recs: chunk})); err != nil {
			w.outbox = w.outbox[:0]
			return // link down; the main loop will exit via onDown
		}
		w.uploaded += uint64(n)
		w.outbox = w.outbox[n:]
	}
	w.outbox = w.outbox[:0]
}
