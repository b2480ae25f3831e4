package wal

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/graph"
)

// ErrNoSnapshot means the directory has no snapshot to recover from.
var ErrNoSnapshot = errors.New("wal: no snapshot found")

// ErrEngineDirty refuses a snapshot of an engine whose last batch did not
// finish applying (canceled or failed mid-flight): the in-memory state is
// between batch boundaries, so a snapshot of it — though it would pass CRC
// validation — would silently become a corrupt recovery base. The WAL tail
// already holds the batch; recovery replays it onto the last good snapshot.
var ErrEngineDirty = errors.New("wal: engine dirty mid-batch; snapshot refused")

// HasSnapshot reports whether dir holds at least one snapshot file — the
// CLI's cue to recover instead of starting fresh.
func HasSnapshot(dir string) bool {
	seqs, err := Snapshots(dir)
	return err == nil && len(seqs) > 0
}

// DurableConfig configures a durable engine: the log options plus the
// snapshot cadence.
type DurableConfig struct {
	Wal Options
	// SnapshotEvery checkpoints after every N applied batches (0 = only
	// the creation-time snapshot; the log then grows unboundedly). The
	// batch that completes the N only captures the snapshot (seq, a frozen
	// graph view, the family's state capture and the dedup frame); a
	// background writer encodes the state, syncs the log, writes and
	// renames the file and truncates the log. At most one snapshot is in
	// flight: the next capture, ProcessBatch's next append, Snapshot,
	// ReopenLog, Close and Abandon wait for it.
	SnapshotEvery int
	// DedupWindow, when positive, enables exactly-once ingest: the wrapper
	// keeps a per-client window of that many (clientSeq -> walSeq)
	// assignments, persists it inside snapshots, rebuilds it during
	// recovery, and AppendTagged consults it so a resent batch is
	// acknowledged without a second append or apply.
	DedupWindow int
}

// Engine is what a Durable needs of the engine it wraps; all three engine
// families provide it through the shared batch driver.
type Engine interface {
	ProcessBatchCtx(context.Context, graph.Batch) (engine.BatchStats, error)
	Values() []float64
}

// Family describes one engine family to the durable wrapper: how to build
// an engine over a fresh graph, how to restore one from a decoded snapshot,
// and its state frame's kind and encoding. Everything else —
// log-before-apply, the dirty bracket, serving mode, snapshot cadence,
// retention, truncation, the dedup window, recovery — is the one Durable.
type Family struct {
	build   func(g *graph.Streaming, cfg engine.Config) Engine
	restore func(g *graph.Streaming, cfg engine.Config, sd *SnapshotData) (Engine, error)
	// kind is the state frame kind the family writes and restores from.
	kind byte
	// capture takes e's state at the batch boundary seq and returns the
	// encoder of that frame's payload, which the snapshot writer runs off
	// the applier. The selective and local families capture the engine's
	// published chunked root, O(N/chunk) on the applier; the O(V) flatten
	// and encode happen in the writer.
	capture func(e Engine, seq uint64, numV int) func() []byte
}

// Build makes the family's engine over g without a log: the same engine a
// caller runs with durability off.
func (f Family) Build(g *graph.Streaming, cfg engine.Config) Engine { return f.build(g, cfg) }

// SelectiveFamily makes SSSP/SSWP/BFS/CC durable: snapshots carry the
// values and key-edge parents, restored as refinement floors without a
// from-scratch solve.
func SelectiveFamily(alg algo.Selective) Family {
	return Family{
		build: func(g *graph.Streaming, cfg engine.Config) Engine { return engine.NewSelective(g, alg, cfg) },
		restore: func(g *graph.Streaming, cfg engine.Config, sd *SnapshotData) (Engine, error) {
			return engine.NewSelectiveFromState(g, alg, cfg, sd.Vals, sd.Parent)
		},
		kind: KindSnapState,
		capture: func(e Engine, seq uint64, _ int) func() []byte {
			st := e.(*engine.Selective).Publish(seq)
			return func() []byte {
				f := st.Flat()
				return EncodeState(nil, f.Vals, f.Parent)
			}
		},
	}
}

// AccumulativeFamily makes PageRank/LP durable: snapshots carry the
// residual state (rank vector + aggregate + last-broadcast residuals)
// captured at a converged batch boundary, so recovery resumes delta-push
// incrementally — no from-scratch converge.
func AccumulativeFamily(alg algo.Accumulative) Family {
	return Family{
		build: func(g *graph.Streaming, cfg engine.Config) Engine { return engine.NewAccumulative(g, alg, cfg) },
		restore: func(g *graph.Streaming, cfg engine.Config, sd *SnapshotData) (Engine, error) {
			return engine.NewAccumulativeFromState(g, alg, cfg, sd.Acc)
		},
		kind: KindSnapAccState,
		capture: func(e Engine, _ uint64, numV int) func() []byte {
			b := EncodeAccState(nil, numV, e.(*engine.Accumulative).SnapshotState())
			return func() []byte { return b }
		},
	}
}

// LocalFamily makes triangle counting / k-core durable. Local algorithms
// have values but no key-edge parents, so snapshots reuse the selective
// state frame with an empty parent column (the codec's np=0 case) and
// recovery installs values only; the unique seeded fixpoints make the
// recovered state bit-exact with an uninterrupted run.
func LocalFamily(alg algo.Local) Family {
	return Family{
		build: func(g *graph.Streaming, cfg engine.Config) Engine { return engine.NewLocal(g, alg, cfg) },
		restore: func(g *graph.Streaming, cfg engine.Config, sd *SnapshotData) (Engine, error) {
			return engine.NewLocalFromState(g, alg, cfg, sd.Vals)
		},
		kind: KindSnapState,
		capture: func(e Engine, seq uint64, _ int) func() []byte {
			st := e.(*engine.Local).Publish(seq)
			return func() []byte { return EncodeState(nil, st.Flat().Vals, nil) }
		},
	}
}

// Durable wraps an engine with write-ahead durability: each batch is logged
// (and synced per policy) before the engine applies it, and periodic
// snapshots bound replay length and log size. After a crash, Recover
// restores the newest intact snapshot and replays the log tail to the exact
// pre-crash acknowledged state.
//
// A Durable owns its one log. Library callers run ProcessBatch (append,
// then apply, under mu); a server calls Group once and then appends from
// many sessions with Append/AppendTagged while one applier runs
// ApplyLogged. Both append through the same group-commit path, so they
// write the same bytes and reach the same crash sites.
type Durable struct {
	// Eng is the wrapped engine. Read it (Values) only between batches.
	Eng Engine

	mu        sync.Mutex // serializes batch apply, snapshot, and seq/dirty
	g         *graph.Streaming
	fam       Family
	cfg       DurableConfig
	seq       uint64 // sequence of the last acknowledged batch
	sinceSnap int
	dirty     bool        // a batch is mid-apply (or died mid-apply)
	serving   bool        // Group ran: appends come from sessions, not ProcessBatch
	dedup     *DedupTable // non-nil when cfg.DedupWindow > 0
	appendSide
	// snap is the snapshot the background writer has in flight (or has
	// finished, not yet collected); werr is the first error a writer
	// returned, sticky until ReopenLog establishes a new base.
	snap *snapJob
	werr error
}

// snapJob is one snapshot captured at a batch boundary: everything the
// writer needs — the frozen out-adjacency, the state frame's encoder and
// the encoded dedup frame.
type snapJob struct {
	seq   uint64
	view  *graph.Frozen
	kind  byte
	state func() []byte
	dedup []byte
	t0    time.Time
	done  chan struct{} // closed when the writer returns
	err   error         // the writer's result, read after done
}

// CheckBatch validates a batch against the engine's graph without touching
// either — what a front-end runs before a batch may reach the log.
func (d *Durable) CheckBatch(b graph.Batch) error { return d.g.CheckBatch(b) }

// captureLocked takes a snapshot at the current batch boundary: seq, a
// frozen view of the graph, the family's state capture and the encoded
// dedup frame.
func (d *Durable) captureLocked() *snapJob {
	return &snapJob{
		seq:   d.seq,
		view:  d.g.Freeze(),
		kind:  d.fam.kind,
		state: d.fam.capture(d.Eng, d.seq, d.g.NumVertices()),
		dedup: dedupFrame(d.dedup, d.seq),
		t0:    time.Now(),
		done:  make(chan struct{}),
	}
}

// encode writes j's snapshot file.
func (j *snapJob) encode(opts Options) error {
	return writeSnapshotView(opts, j.seq, j.view, j.kind, j.state(), j.dedup)
}

// release ends j's view and drops what the capture holds, so a finished
// job kept until the next capture pins no state of its own.
func (j *snapJob) release() {
	j.view.Release()
	j.view, j.state, j.dedup = nil, nil, nil
}

// startSnapshotLocked waits out the writer in flight, refuses a dirty
// engine, and hands a capture of the current boundary to a new writer
// goroutine — at most one exists at a time.
func (d *Durable) startSnapshotLocked() error {
	if err := d.settleLocked(); err != nil {
		return err
	}
	if d.dirty {
		return ErrEngineDirty
	}
	j := d.captureLocked()
	d.snap = j
	d.sinceSnap = 0
	go d.write(j)
	return nil
}

// write is the background snapshot writer: frames <= seq durable in the
// log, the snapshot file written, fsynced and renamed, retention applied,
// the log truncated behind the older retained snapshot. It never takes
// d.mu; the capture carries everything it reads, and the log is touched
// only under the append mutex.
func (d *Durable) write(j *snapJob) {
	defer close(j.done)
	defer j.release()
	opts, m := d.cfg.Wal, d.cfg.Wal.Metrics
	// Frames <= seq must be durable before a snapshot claims to cover them.
	if opts.Policy != FsyncOff {
		if j.err = d.withLog((*Log).Sync); j.err != nil {
			return
		}
	}
	if j.err = j.encode(opts); j.err != nil {
		return
	}
	if m != nil {
		m.Counter("wal.snapshots").Inc()
		m.Histogram("wal.snapshot_ns").Observe(time.Since(j.t0).Nanoseconds())
	}
	// Retention removes files outside the append mutex; only the log
	// truncation needs it.
	trim, ok, err := PruneSnapshots(opts)
	if err != nil || !ok {
		j.err = err
		return
	}
	j.err = d.withLog(func(l *Log) error { return l.TruncateThrough(trim) })
}

// settleLocked waits for the snapshot writer in flight, if any, and
// returns the sticky writer error. A writer that found the log already
// poisoned (ErrPoisoned) skipped its snapshot without making that sticky:
// the failed append that poisoned the log reports it, the next append is
// refused anyway, and the degraded exit (ReopenLog) writes a fresh base.
func (d *Durable) settleLocked() error {
	if j := d.snap; j != nil {
		select {
		case <-j.done:
		default:
			if m := d.cfg.Wal.Metrics; m != nil {
				m.Counter("wal.snapshot_waits").Inc()
			}
			<-j.done
		}
		d.snap = nil
		if d.werr == nil && !errors.Is(j.err, ErrPoisoned) {
			d.werr = j.err
		}
	}
	return d.werr
}

// ProcessBatch validates, logs, syncs (per policy), and only then applies
// one batch. A nil return means the batch is both applied and as durable as
// the fsync policy promises; a non-nil return means it was NOT acknowledged
// (a malformed batch mutated nothing; any other error leaves the wrapper
// unusable — recover from the directory, or ReopenLog once the disk
// relents). It appends through Append, the path a server's sessions use.
func (d *Durable) ProcessBatch(ctx context.Context, batch graph.Batch) (engine.BatchStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.serving {
		return engine.BatchStats{}, fmt.Errorf("wal: log is in serving mode; append with Append and apply with ApplyLogged")
	}
	if err := d.g.CheckBatch(batch); err != nil {
		return engine.BatchStats{}, err // reject before logging garbage
	}
	// A library caller is single-threaded: the snapshot writer finishes
	// before the next append, which also keeps the crash sites in order.
	if err := d.settleLocked(); err != nil {
		return engine.BatchStats{}, err
	}
	seq, err := d.Append(batch)
	if err != nil {
		return engine.BatchStats{}, err
	}
	return d.applyLocked(ctx, seq, batch)
}

// applyLocked runs the engine over an already-logged batch and, on success,
// advances the acknowledged sequence and the snapshot cadence. The dirty
// flag brackets the apply: if the engine is canceled or fails mid-batch the
// flag stays set and Snapshot refuses to persist the half-applied state.
func (d *Durable) applyLocked(ctx context.Context, seq uint64, batch graph.Batch) (engine.BatchStats, error) {
	d.dirty = true
	st, err := d.Eng.ProcessBatchCtx(ctx, batch)
	if err != nil {
		return st, err
	}
	d.dirty = false
	d.seq = seq
	d.sinceSnap++
	if d.cfg.SnapshotEvery > 0 && d.sinceSnap >= d.cfg.SnapshotEvery {
		if err := d.startSnapshotLocked(); err != nil {
			return st, err
		}
	}
	return st, nil
}

// ApplyLogged applies one batch that is already in the log under seq (the
// serving mode's apply half: sessions append through AppendTagged, a
// single applier feeds the engine in logged order). seq must be exactly
// Seq()+1 — the logged order is the only apply order recovery can
// reproduce.
func (d *Durable) ApplyLogged(ctx context.Context, seq uint64, batch graph.Batch) (engine.BatchStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if seq != d.seq+1 {
		return engine.BatchStats{}, fmt.Errorf("wal: apply seq %d, want %d (out of logged order)", seq, d.seq+1)
	}
	return d.applyLocked(ctx, seq, batch)
}

// Dirty reports whether the engine died mid-batch (canceled apply), in
// which case the in-memory state is between batch boundaries and must not
// be snapshotted; recovery from the directory is the only safe exit.
func (d *Durable) Dirty() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dirty
}

// Seq returns the sequence of the last acknowledged (applied) batch.
func (d *Durable) Seq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq
}

// Snapshot checkpoints the current state at the current sequence, applies
// retention (keep snapRetain newest), and truncates the log through the
// older retained snapshot, returning once all of that is done. It waits
// for a background snapshot in flight first, and refuses (ErrEngineDirty)
// when the last batch died mid-apply — persisting that state would
// fabricate a corrupt-but-CRC-valid recovery base.
func (d *Durable) Snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.startSnapshotLocked(); err != nil {
		return err
	}
	j := d.snap
	if err := d.settleLocked(); err != nil {
		return err
	}
	return j.err
}

// ReopenLog recovers from a poisoned log without losing the live engine —
// the degraded-mode exit. It must only be called once appends are failing
// (the log is poisoned) and, in serving mode, keeps retrying cheaply until
// the applier has caught up with every append that made it into the log.
//
// The in-memory engine is the recovery base: everything the applier has
// applied was either durable already or enqueued by an append whose ack may
// have failed only at the fsync — and every such batch's dedup record rode
// the same frame, so a client resend is acknowledged without reapply. The
// exit therefore snapshots the applied state (snapshot writes bypass the
// append-path fault window), restarts the chain there with a fresh log over
// the repaired directory, and clears the sticky sync error; the durable
// watermark jumps to the last assigned sequence, which the new base covers.
func (d *Durable) ReopenLog() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.settleLocked() // a writer error is superseded by the new base below
	if d.dirty {
		return ErrEngineDirty
	}
	d.am.Lock()
	defer d.am.Unlock()
	d.log.abandon() // a poisoned handle can't be synced; drop it
	nl, err := Open(d.cfg.Wal)
	if err != nil {
		return err
	}
	if err := d.establishLocked(nl); err != nil {
		// Still degraded: the (dead) old log stays, so appends keep failing
		// with ErrPoisoned until a later reopen succeeds.
		nl.abandon()
		return err
	}
	d.log = nl
	if !d.serving {
		d.next = d.seq // no applier runs a frame whose ProcessBatch was refused
	}
	d.sm.Lock()
	d.syncErr = nil
	d.synced = max(d.synced, d.next)
	d.endRoundLocked()
	d.sm.Unlock()
	if m := d.cfg.Wal.Metrics; m != nil {
		m.Counter("wal.reopens").Inc()
	}
	_, _, _ = PruneSnapshots(d.cfg.Wal) // best-effort retention: the new base is durable
	return nil
}

// establishLocked snapshots the applied state and restarts nl's chain there,
// dropping any frame past it (library mode's refused tail). Inline: the new
// log needs no sync, and the writer's truncation would need the held mutex.
func (d *Durable) establishLocked(nl *Log) error {
	if d.serving && nl.LastSeq() > d.seq {
		return fmt.Errorf("wal: reopen: log holds seq %d but only %d applied; applier behind", nl.LastSeq(), d.seq)
	}
	j := d.captureLocked()
	err := j.encode(d.cfg.Wal)
	j.release()
	if err != nil {
		return err
	}
	if err := nl.resetTo(d.seq); err != nil {
		return err
	}
	d.sinceSnap = 0
	d.werr = nil
	return nil
}

// Close syncs (per policy) and closes the log. The engine stays usable but
// further batches are no longer durable. In serving mode the caller must
// have stopped every appender first.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	werr := d.settleLocked()
	if err := d.withLog((*Log).Close); err != nil {
		return err
	}
	return werr
}

// Abandon drops the log handle without any cleanup — the crash fuzzers' and
// chaos harnesses' process-death stand-in. A snapshot writer in flight is
// waited for first, so no goroutine outlives the wrapper.
func (d *Durable) Abandon() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.settleLocked()
	d.withLog(func(l *Log) error { l.abandon(); return nil })
}

// initDedup builds the dedup table for a fresh or recovered wrapper: the
// snapshot's persisted window when one survived (recovery), else empty.
func (d *Durable) initDedup(fromSnap *DedupTable) {
	if d.cfg.DedupWindow <= 0 {
		return
	}
	if fromSnap != nil {
		d.dedup = fromSnap
		d.dedup.setWindow(d.cfg.DedupWindow)
		return
	}
	d.dedup = NewDedupTable(d.cfg.DedupWindow)
}

// NewDurable builds a fresh engine of the given family over g (running its
// initial solve) and makes it durable. The directory must not already hold
// a snapshot or log — recover those with Recover instead.
func NewDurable(g *graph.Streaming, fam Family, ecfg engine.Config, dc DurableConfig) (*Durable, error) {
	if HasSnapshot(dc.Wal.Dir) {
		return nil, fmt.Errorf("wal: %s already holds a snapshot; use Recover", dc.Wal.Dir)
	}
	if err := removeStaleTemps(dc.Wal.Dir); err != nil {
		return nil, err
	}
	log, err := Open(dc.Wal)
	if err != nil {
		return nil, err
	}
	if log.LastSeq() != 0 {
		log.Close()
		return nil, fmt.Errorf("wal: %s holds a log but no snapshot; cannot establish a recovery base", dc.Wal.Dir)
	}
	d := &Durable{Eng: fam.build(g, ecfg), g: g, fam: fam, cfg: dc}
	d.startLog(log, 0)
	d.initDedup(nil)
	// The creation-time snapshot (seq 0) makes the initial graph and solve
	// durable, so recovery never depends on regenerating the input.
	if err := d.Snapshot(); err != nil {
		log.Close()
		return nil, err
	}
	return d, nil
}

// NewDurableSelective is NewDurable over SelectiveFamily(alg).
func NewDurableSelective(g *graph.Streaming, alg algo.Selective, ecfg engine.Config, dc DurableConfig) (*Durable, error) {
	return NewDurable(g, SelectiveFamily(alg), ecfg, dc)
}

// RecoveryStats summarizes one recovery.
type RecoveryStats struct {
	SnapshotSeq uint64        // sequence of the snapshot restored
	Replayed    int           // WAL frames replayed through the engine
	LastSeq     uint64        // last acknowledged sequence after recovery
	Restore     time.Duration // snapshot load, graph build and engine install
	Duration    time.Duration // wall time of the whole recovery
}

// replayTail opens dc's log and replays every frame past snapSeq through
// apply, updating rs; it then repairs a log whose surviving tail predates
// the snapshot (an unsynced tail torn away) by restarting the sequence
// chain at the snapshot.
func replayTail(dc DurableConfig, snapSeq uint64, dedup *DedupTable, rs *RecoveryStats,
	apply func(b graph.Batch) error) (*Log, error) {
	log, err := Open(dc.Wal)
	if err != nil {
		return nil, err
	}
	last := snapSeq
	err = log.ReplayTagged(snapSeq, func(seq uint64, b graph.Batch, cid string, cseq uint64) error {
		if err := apply(b); err != nil {
			return err
		}
		if dedup != nil && cid != "" {
			dedup.Record(cid, cseq, seq)
		}
		last = seq
		rs.Replayed++
		return nil
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	if log.LastSeq() < snapSeq {
		if err := log.resetTo(snapSeq); err != nil {
			log.Close()
			return nil, err
		}
	}
	rs.LastSeq = last
	if m := dc.Wal.Metrics; m != nil {
		m.Counter("recovery.replay_batches").Add(int64(rs.Replayed))
	}
	return log, nil
}

// Recover rebuilds a durable engine of the given family from dc.Wal.Dir: it
// restores the newest snapshot of the family's kind that validates (falling
// back to older ones), installs the snapshot's state in the engine without
// a from-scratch solve, and replays the WAL tail through it. Each surviving sequence is applied
// exactly once; replay stops cleanly at the first torn or corrupt frame.
func Recover(fam Family, ecfg engine.Config, dc DurableConfig) (*Durable, RecoveryStats, error) {
	t0 := time.Now()
	var rs RecoveryStats
	if err := removeStaleTemps(dc.Wal.Dir); err != nil {
		return nil, rs, err
	}
	tRestore := time.Now()
	sd, err := LoadSnapshot(dc.Wal.Dir, fam.kind)
	if err != nil {
		return nil, rs, err
	}
	rs.SnapshotSeq = sd.Seq

	g := graph.FromEdges(sd.NumV, sd.Edges)
	eng, err := fam.restore(g, ecfg, sd)
	if err != nil {
		return nil, rs, err
	}
	rs.Restore = time.Since(tRestore)
	d := &Durable{Eng: eng, g: g, fam: fam, cfg: dc}
	d.initDedup(sd.Dedup)
	log, err := replayTail(dc, sd.Seq, d.dedup, &rs, func(b graph.Batch) error {
		_, err := eng.ProcessBatchCtx(context.Background(), b)
		return err
	})
	if err != nil {
		return nil, rs, err
	}
	d.seq = rs.LastSeq
	d.startLog(log, d.seq)
	rs.Duration = time.Since(t0)
	if m := dc.Wal.Metrics; m != nil {
		m.Gauge("recovery.ns").Set(float64(rs.Duration.Nanoseconds()))
	}
	return d, rs, nil
}

// RecoverSelective is Recover over SelectiveFamily(alg).
func RecoverSelective(alg algo.Selective, ecfg engine.Config, dc DurableConfig) (*Durable, RecoveryStats, error) {
	return Recover(SelectiveFamily(alg), ecfg, dc)
}
