package wal

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
)

// appendSide is a Durable's one owner of its log: every append, sync,
// rotation, truncation and log swap runs under am. Frame writes are
// serialized — appends stay strictly ordered, so the on-disk sequence chain
// is also the authoritative apply order — and, under FsyncAlways, appenders
// share fsyncs leader/follower style: while one append's fsync is in
// flight, later appenders queue, write their frames the moment it
// completes, and the next leader's single fsync makes the whole group
// durable. With W concurrent writers each fsync covers up to W appends, so
// fsync amplification drops below one per batch. Options.GroupWindow widens
// the net: a leader that sees another Append in flight yields briefly
// before syncing, which matters on few-core hosts where appenders rarely
// overlap an in-progress fsync on their own. A library caller is the
// one-writer case of the same path.
//
// Lock order is Durable.mu → am → sm. onAppend runs under am and must never
// take Durable.mu.
type appendSide struct {
	am        sync.Mutex // serializes log writes, onAppend, rotation, truncation, the log swap
	log       *Log
	next      uint64 // last assigned sequence (under am)
	onAppend  func(seq uint64, b graph.Batch)
	groupSize *metrics.Histogram

	inflight atomic.Int32 // Append calls between entry and return
	writers  atomic.Int32 // advertised concurrent writers (AddWriter)

	sm      sync.Mutex
	syncing bool          // a leader's fsync is in flight
	synced  uint64        // highest sequence known durable
	syncErr error         // sticky: a failed fsync fails every later waiter
	wake    chan struct{} // closed and replaced when a sync round ends
}

// startLog installs l as the log whose chain head is seq: everything <= seq
// is snapshot-covered or replayed, so it counts as durable.
func (a *appendSide) startLog(l *Log, seq uint64) {
	a.log, a.next, a.synced = l, seq, seq
	a.wake = make(chan struct{})
}

// Group puts the log in serving mode: onAppend observes every append in
// logged order (the serving applier's queue), groupSize, when non-nil,
// records appends-per-fsync, and ProcessBatch is disabled in favor of
// Append followed by ApplyLogged.
func (d *Durable) Group(onAppend func(seq uint64, b graph.Batch), groupSize *metrics.Histogram) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.am.Lock()
	d.onAppend, d.groupSize = onAppend, groupSize
	d.am.Unlock()
	d.serving = true
}

// Append logs b under the next sequence and returns that sequence once the
// batch is as durable as the log's fsync policy promises. onAppend runs
// under the append mutex — immediately after the frame is written and
// before any later append — so it observes batches in exactly the logged
// order; it must not block.
func (d *Durable) Append(b graph.Batch) (uint64, error) {
	seq, _, err := d.AppendTagged("", 0, b)
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
func (d *Durable) AppendTagged(clientID string, clientSeq uint64, b graph.Batch) (uint64, bool, error) {
	d.inflight.Add(1)
	defer d.inflight.Add(-1)
	always := d.cfg.Wal.Policy == FsyncAlways
	d.am.Lock()
	if d.dedup != nil && clientID != "" {
		if walSeq, dup := d.dedup.Check(clientID, clientSeq); dup {
			d.am.Unlock()
			// The original append already ran; make sure the ack we are
			// about to repeat keeps the durability promise it carried.
			if always && walSeq > 0 {
				if err := d.waitDurable(walSeq); err != nil {
					return 0, true, err
				}
			}
			return walSeq, true, nil
		}
	}
	seq := d.next + 1
	if err := d.log.appendTagged(seq, clientID, clientSeq, b); err != nil {
		d.am.Unlock()
		return 0, false, err
	}
	d.next = seq
	if d.dedup != nil && clientID != "" {
		d.dedup.Record(clientID, clientSeq, seq)
	}
	if d.onAppend != nil {
		d.onAppend(seq, b)
	}
	if !always {
		// interval/off: acknowledge before sync, as the policy promises. The
		// interval sync runs inline; it is amortized and rarely fires.
		err := d.log.syncPolicy()
		d.am.Unlock()
		// On error the frame is still logged and enqueued: report seq so the
		// caller knows the applier will see this batch.
		return seq, false, err
	}
	d.am.Unlock()
	// always: wait (outside the append mutex, so the next group can form)
	// until a leader's fsync covers this sequence.
	return seq, false, d.waitDurable(seq)
}

// waitDurable blocks until synced >= seq. The first waiter of a round
// becomes leader: it takes the append mutex (freezing LastSeq), issues one
// fsync, and publishes the new watermark; every waiter at or below the
// watermark returns. Waiters that appended while the fsync was in flight
// form the next round.
func (d *Durable) waitDurable(seq uint64) error {
	d.sm.Lock()
	for {
		if d.syncErr != nil {
			err := d.syncErr
			d.sm.Unlock()
			return err
		}
		if d.synced >= seq {
			d.sm.Unlock()
			return nil
		}
		if !d.syncing {
			d.syncing = true
			prev := d.synced
			d.sm.Unlock()

			// Commit window: when other writers exist — another Append is
			// mid-flight, or the owner advertised concurrent sessions via
			// AddWriter — yield briefly so their frames land and ride this
			// fsync. A lone writer skips the wait entirely, so the window
			// only trades latency for shared fsyncs when there is actually
			// a group to form.
			if w := d.cfg.Wal.GroupWindow; w > 0 &&
				(d.writers.Load() > 1 || d.inflight.Load() > 1) {
				time.Sleep(w)
			}

			d.am.Lock()
			high := d.log.LastSeq()
			err := d.log.Sync()
			d.am.Unlock()

			d.sm.Lock()
			d.syncing = false
			if err != nil {
				d.syncErr = err
			} else {
				if d.groupSize != nil && high > prev {
					d.groupSize.Observe(int64(high - prev))
				}
				if high > d.synced {
					d.synced = high
				}
			}
			d.endRoundLocked()
			continue
		}
		ch := d.wake
		d.sm.Unlock()
		<-ch
		d.sm.Lock()
	}
}

// endRoundLocked wakes every waiter of the sync round; sm is held.
func (a *appendSide) endRoundLocked() {
	close(a.wake)
	a.wake = make(chan struct{})
}

// AddWriter adjusts the advertised concurrent-writer count (delta may be
// negative). The serving layer calls it as ingest sessions come and go;
// with more than one writer advertised, sync leaders hold the GroupWindow
// open even when the peers are momentarily outside Append (typical on
// few-core hosts, where staggered request cycles rarely overlap).
func (d *Durable) AddWriter(delta int) { d.writers.Add(int32(delta)) }

// LastSeq returns the highest appended sequence.
func (d *Durable) LastSeq() uint64 {
	d.am.Lock()
	defer d.am.Unlock()
	return d.log.LastSeq()
}

// withLog runs f with the append mutex held — the seam the snapshot path
// uses so its syncs and truncations never interleave with a concurrent
// append's write or rotation.
func (d *Durable) withLog(f func(l *Log) error) error {
	d.am.Lock()
	defer d.am.Unlock()
	return f(d.log)
}
