package wal

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
)

// GroupCommit adapts the single-writer Log to concurrent appenders. Frame
// writes are serialized under one mutex — appends stay strictly ordered, so
// the on-disk sequence chain is also the authoritative apply order — and,
// under FsyncAlways, appenders share fsyncs leader/follower style: while one
// append's fsync is in flight, later appenders queue, write their frames the
// moment it completes, and the next leader's single fsync makes the whole
// group durable. With W concurrent writers each fsync covers up to W
// appends, so fsync amplification drops below one per batch (Fig S5).
// Options.GroupWindow widens the net: a leader that sees another Append in
// flight yields briefly before syncing, which matters on few-core hosts
// where appenders rarely overlap an in-progress fsync on their own.
//
// The zero value is not usable; build one with Durable.Group.
type GroupCommit struct {
	mu       sync.Mutex // serializes l.append, onAppend, rotation, truncation
	l        *Log
	onAppend func(seq uint64, b graph.Batch)
	dedup    *DedupTable // nil = exactly-once ingest disabled

	next uint64 // last assigned sequence (under mu)

	inflight atomic.Int32 // Append calls between entry and return
	writers  atomic.Int32 // advertised concurrent writers (AddWriter)

	sm      sync.Mutex
	syncing bool          // a leader's fsync is in flight
	synced  uint64        // highest sequence known durable
	syncErr error         // sticky: a failed fsync fails every later waiter
	wake    chan struct{} // closed and replaced when a sync round ends

	groupSize *metrics.Histogram
}

func newGroupCommit(l *Log, start uint64, onAppend func(seq uint64, b graph.Batch), dedup *DedupTable, groupSize *metrics.Histogram) *GroupCommit {
	return &GroupCommit{
		l:         l,
		onAppend:  onAppend,
		dedup:     dedup,
		next:      start,
		synced:    start, // everything <= start is snapshot-covered or replayed
		wake:      make(chan struct{}),
		groupSize: groupSize,
	}
}

// Append logs b under the next sequence and returns that sequence once the
// batch is as durable as the log's fsync policy promises. onAppend runs
// under the append mutex — immediately after the frame is written and
// before any later append — so it observes batches in exactly the logged
// order; it must not block.
func (gc *GroupCommit) Append(b graph.Batch) (uint64, error) {
	seq, _, err := gc.AppendTagged("", 0, b)
	return seq, err
}

// AppendTagged is Append carrying a client idempotency key. When the key was
// already logged (a resend after a reconnect, a degraded episode, or a
// daemon restart) it reports dup=true with the original sequence — already
// durable and already on its way to the engine — without a second append or
// apply; otherwise it logs the batch with the key embedded in the frame and
// records the assignment in the dedup window. An empty clientID bypasses
// deduplication entirely.
//
// On error, a nonzero returned sequence means the frame was written and
// onAppend observed it — only the durability promise failed (a poisoned
// fsync), so an applier downstream of onAppend WILL process the batch and
// the caller must not double-release resources it hands the applier. A
// zero sequence with an error means nothing was logged or enqueued.
func (gc *GroupCommit) AppendTagged(clientID string, clientSeq uint64, b graph.Batch) (uint64, bool, error) {
	gc.inflight.Add(1)
	defer gc.inflight.Add(-1)
	gc.mu.Lock()
	if gc.dedup != nil && clientID != "" {
		if walSeq, dup := gc.dedup.Check(clientID, clientSeq); dup {
			gc.mu.Unlock()
			// The original append already ran; make sure the ack we are
			// about to repeat keeps the durability promise it carried.
			if gc.l.opts.Policy == FsyncAlways && walSeq > 0 {
				if err := gc.waitDurable(walSeq); err != nil {
					return 0, true, err
				}
			}
			return walSeq, true, nil
		}
	}
	seq := gc.next + 1
	if err := gc.l.appendTagged(seq, clientID, clientSeq, b); err != nil {
		gc.mu.Unlock()
		return 0, false, err
	}
	gc.next = seq
	if gc.dedup != nil && clientID != "" {
		gc.dedup.Record(clientID, clientSeq, seq)
	}
	if gc.onAppend != nil {
		gc.onAppend(seq, b)
	}
	if gc.l.opts.Policy != FsyncAlways {
		// interval/off: acknowledge before sync, as the policy promises. The
		// interval sync runs inline; it is amortized and rarely fires.
		err := gc.l.syncPolicy()
		gc.mu.Unlock()
		// On error the frame is still logged and enqueued: report seq so the
		// caller knows the applier will see this batch.
		return seq, false, err
	}
	gc.mu.Unlock()
	// always: wait (outside the append mutex, so the next group can form)
	// until a leader's fsync covers this sequence.
	if err := gc.waitDurable(seq); err != nil {
		return seq, false, err
	}
	return seq, false, nil
}

// waitDurable blocks until synced >= seq. The first waiter of a round
// becomes leader: it takes the append mutex (freezing LastSeq), issues one
// fsync, and publishes the new watermark; every waiter at or below the
// watermark returns. Waiters that appended while the fsync was in flight
// form the next round.
func (gc *GroupCommit) waitDurable(seq uint64) error {
	gc.sm.Lock()
	for {
		if gc.syncErr != nil {
			err := gc.syncErr
			gc.sm.Unlock()
			return err
		}
		if gc.synced >= seq {
			gc.sm.Unlock()
			return nil
		}
		if !gc.syncing {
			gc.syncing = true
			prev := gc.synced
			gc.sm.Unlock()

			// Commit window: when other writers exist — another Append is
			// mid-flight, or the owner advertised concurrent sessions via
			// AddWriter — yield briefly so their frames land and ride this
			// fsync. A lone writer skips the wait entirely, so the window
			// only trades latency for shared fsyncs when there is actually
			// a group to form.
			if w := gc.l.opts.GroupWindow; w > 0 &&
				(gc.writers.Load() > 1 || gc.inflight.Load() > 1) {
				time.Sleep(w)
			}

			gc.mu.Lock()
			high := gc.l.LastSeq()
			err := gc.l.Sync()
			gc.mu.Unlock()

			gc.sm.Lock()
			gc.syncing = false
			if err != nil {
				gc.syncErr = err
			} else {
				if gc.groupSize != nil && high > prev {
					gc.groupSize.Observe(int64(high - prev))
				}
				if high > gc.synced {
					gc.synced = high
				}
			}
			close(gc.wake)
			gc.wake = make(chan struct{})
			continue
		}
		ch := gc.wake
		gc.sm.Unlock()
		<-ch
		gc.sm.Lock()
	}
}

// AddWriter adjusts the advertised concurrent-writer count (delta may be
// negative). The serving layer calls it as ingest sessions come and go;
// with more than one writer advertised, sync leaders hold the GroupWindow
// open even when the peers are momentarily outside Append (typical on
// few-core hosts, where staggered request cycles rarely overlap).
func (gc *GroupCommit) AddWriter(delta int) { gc.writers.Add(int32(delta)) }

// Sync forces everything appended so far durable (drain/shutdown path).
func (gc *GroupCommit) Sync() error {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.l.Sync()
}

// LastSeq returns the highest appended sequence.
func (gc *GroupCommit) LastSeq() uint64 {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.l.LastSeq()
}

// withLog runs f with the append mutex held — the seam the snapshot path
// uses so retention-driven syncs and truncations cannot interleave with a
// concurrent append's rotation.
func (gc *GroupCommit) withLog(f func(l *Log) error) error {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return f(gc.l)
}

// Dedup exposes the group's dedup table (nil when exactly-once ingest is
// disabled) for hit accounting.
func (gc *GroupCommit) Dedup() *DedupTable { return gc.dedup }

// reopen swaps a poisoned log for a freshly Opened one over the same
// directory — the degraded-mode recovery seam. establish runs with the new
// log installed and the append mutex held; it must leave disk and engine
// agreeing on the chain head (Durable.ReopenLog does so by snapshotting the
// applied state and restarting the chain there). On success the sticky sync
// error clears and the durable watermark jumps to the last assigned
// sequence, which the establish snapshot now covers.
func (gc *GroupCommit) reopen(establish func(l *Log) error) error {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	old := gc.l
	old.abandon() // a poisoned handle can't be synced; drop it
	nl, err := Open(old.opts)
	if err != nil {
		return err
	}
	gc.l = nl
	if err := establish(nl); err != nil {
		// Still degraded: put the (dead) old log back so appends keep
		// failing with ErrPoisoned until a later reopen succeeds.
		nl.abandon()
		gc.l = old
		return err
	}
	gc.sm.Lock()
	gc.syncErr = nil
	if gc.next > gc.synced {
		gc.synced = gc.next
	}
	close(gc.wake)
	gc.wake = make(chan struct{})
	gc.sm.Unlock()
	return nil
}
