package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
)

// ErrPoisoned marks a log whose on-disk state diverged from its in-memory
// bookkeeping: a write or fsync failed partway, so the file offset no longer
// matches l.size and a further append would interleave a frame mid-segment.
// Every later Append/Sync returns an error wrapping this sentinel; the only
// way forward is to close the handle and re-Open, whose repair truncates the
// damage.
var ErrPoisoned = errors.New("wal: log poisoned by earlier write failure")

// FsyncPolicy says when the log forces appended frames to stable storage.
type FsyncPolicy int

const (
	// FsyncInterval (the default) syncs every Options.FsyncEvery appends:
	// bounded loss under an OS crash at a fraction of FsyncAlways's cost.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every append: an acknowledged batch survives
	// even an OS crash.
	FsyncAlways
	// FsyncOff never syncs: durability only against process crashes (the
	// page cache keeps written bytes alive when the process dies).
	FsyncOff
)

// String names the policy for CLI flags and experiment tables.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	}
	return "interval"
}

// ParseFsync maps a CLI name to a policy.
func ParseFsync(s string) (FsyncPolicy, bool) {
	switch s {
	case "interval", "":
		return FsyncInterval, true
	case "always":
		return FsyncAlways, true
	case "off", "none":
		return FsyncOff, true
	}
	return FsyncInterval, false
}

// Options configures a Log (and, through Durable, the snapshot cadence
// sharing its directory). The zero value is usable once Dir is set.
type Options struct {
	// Dir holds the segments and snapshots. It must exist.
	Dir string
	// SegmentBytes rotates to a new segment once the active one reaches
	// this size (default 4 MiB).
	SegmentBytes int64
	// Policy is the fsync policy (FsyncInterval by default).
	Policy FsyncPolicy
	// FsyncEvery is the append count between syncs under FsyncInterval
	// (default 8).
	FsyncEvery int
	// Metrics, when non-nil, receives wal.append_ns / wal.fsync_ns
	// histograms and wal.appends / wal.fsyncs / wal.rotations counters;
	// through Durable also the wal.snapshot_ns histogram (capture to
	// rename) and the wal.snapshots / wal.snapshot_waits counters.
	Metrics *metrics.Registry
	// GroupWindow, under FsyncAlways, is how long a Durable's sync leader
	// yields before issuing its fsync so concurrent appenders can write
	// their frames and share it. The wait is adaptive: it is skipped
	// unless another Append is in flight or AddWriter advertised more than
	// one writer, so a lone writer (every library caller) pays nothing. Zero disables the window (every leader syncs
	// immediately; groups only form from appends that landed during a
	// previous fsync).
	GroupWindow time.Duration

	// DiskFaults, when non-nil, is consulted at the same sites as the crash
	// hook but injects live disk errors (ENOSPC, EIO, failing fsync) instead
	// of simulated process death: the operation fails and poisons the log,
	// and the process is expected to degrade, probe, and Reopen. Shared by
	// reference across Options copies and log reopens.
	DiskFaults *DiskFaultInjector

	// hook is the crash-point injection seam: when non-nil it runs before
	// every durability-critical operation, and a non-nil return aborts the
	// operation as if the process died there (crash_test.go). Production
	// code never sets it.
	hook func(site string) error
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return 4 << 20
}

func (o Options) fsyncEvery() int {
	if o.FsyncEvery > 0 {
		return o.FsyncEvery
	}
	return 8
}

// crashError simulates a process death at an injection site. Tear >= 0
// first writes that many bytes of the pending data, modeling a write torn
// mid-frame.
type crashError struct {
	Site string
	Tear int
}

func (e *crashError) Error() string { return "wal: injected crash at " + e.Site }

// fire runs the hook for a site and reports how many bytes of pending data
// to write before dying (-1 = none).
func (o Options) fire(site string) (tear int, err error) {
	if o.hook != nil {
		if err := o.hook(site); err != nil {
			if ce, ok := err.(*crashError); ok {
				return ce.Tear, err
			}
			return -1, err
		}
	}
	if o.DiskFaults != nil {
		if err := o.DiskFaults.fire(site); err != nil {
			return -1, err
		}
	}
	return -1, nil
}

const (
	segPrefix = "wal-"
	segSuffix = ".seg"
)

func segName(first uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix)
}

// segFirst parses a segment filename's first-sequence component.
func segFirst(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hexa := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hexa) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexa, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

type segment struct {
	path  string
	first uint64
}

// Log is a segmented, CRC-framed, length-prefixed write-ahead log of edge
// batches. Sequence numbers are assigned by the caller, must increase by
// exactly one per append, and are the exactly-once contract recovery relies
// on: replay applies each surviving sequence number once and in order.
//
// Log is not safe for concurrent use; the durable wrappers serialize on it.
type Log struct {
	opts Options

	segs      []segment // sorted by first seq; the last one is active
	f         *os.File  // active segment (nil until the first append)
	size      int64
	lastSeq   uint64 // highest appended/recovered seq (0 = none known)
	sinceSync int
	buf       []byte
	err       error // sticky ErrPoisoned wrapper once disk state is suspect

	appendNs  *metrics.Histogram
	fsyncNs   *metrics.Histogram
	appends   *metrics.Counter
	fsyncs    *metrics.Counter
	rotations *metrics.Counter
}

// Open scans dir, repairs the log (truncating the first torn or corrupt
// frame and discarding everything after it — later frames are unreachable
// once the sequence chain breaks), and returns a log positioned to append
// after the last valid frame.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	l := &Log{opts: opts}
	if r := opts.Metrics; r != nil {
		l.appendNs = r.Histogram("wal.append_ns")
		l.fsyncNs = r.Histogram("wal.fsync_ns")
		l.appends = r.Counter("wal.appends")
		l.fsyncs = r.Counter("wal.fsyncs")
		l.rotations = r.Counter("wal.rotations")
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		if first, ok := segFirst(e.Name()); ok {
			l.segs = append(l.segs, segment{path: filepath.Join(opts.Dir, e.Name()), first: first})
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].first < l.segs[j].first })
	if err := l.repair(); err != nil {
		return nil, err
	}
	if n := len(l.segs); n > 0 {
		f, err := os.OpenFile(l.segs[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.size = f, st.Size()
	}
	return l, nil
}

// repair walks every segment in order, validating frames and the sequence
// chain. The first torn, corrupt, or out-of-chain frame ends the valid log:
// its file is truncated to the last good offset and every later segment is
// deleted. lastSeq is left at the last valid frame.
func (l *Log) repair() error {
	for i := 0; i < len(l.segs); i++ {
		validEnd, last, ok, err := scanSegment(l.segs[i].path, l.lastSeq)
		if err != nil {
			return err
		}
		if last > 0 {
			l.lastSeq = last
		}
		if ok {
			continue
		}
		// Damage inside segment i: keep its valid prefix, drop the rest.
		if err := os.Truncate(l.segs[i].path, validEnd); err != nil {
			return fmt.Errorf("wal: repair: %w", err)
		}
		for _, s := range l.segs[i+1:] {
			if err := os.Remove(s.path); err != nil {
				return fmt.Errorf("wal: repair: %w", err)
			}
		}
		l.segs = l.segs[:i+1]
		break
	}
	return nil
}

// scanSegment validates one segment's frames. prevSeq is the sequence the
// chain must continue from (0 = accept any start). It returns the byte
// offset after the last valid frame, the last valid sequence (0 if none),
// and whether the whole file validated.
func scanSegment(path string, prevSeq uint64) (validEnd int64, lastSeq uint64, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	cr := &countingReader{r: f}
	for {
		kind, payload, rerr := ReadFrame(cr)
		if rerr == io.EOF {
			return cr.n, lastSeq, true, nil
		}
		if rerr != nil {
			return validEnd, lastSeq, false, nil // torn or corrupt: stop here
		}
		seq, _, _, _, derr := decodeAnyBatch(kind, payload)
		if derr != nil || (prevSeq != 0 && seq != prevSeq+1) || (prevSeq == 0 && seq == 0) {
			return validEnd, lastSeq, false, nil
		}
		prevSeq, lastSeq = seq, seq
		validEnd = cr.n
	}
}

// decodeAnyBatch decodes either batch frame kind, returning empty tag fields
// for untagged frames and an error for any other kind.
func decodeAnyBatch(kind byte, payload []byte) (seq uint64, b graph.Batch, clientID string, clientSeq uint64, err error) {
	switch kind {
	case KindBatch:
		seq, b, err = DecodeBatch(payload)
		return seq, b, "", 0, err
	case KindBatchTagged:
		return DecodeTaggedBatch(payload)
	}
	return 0, nil, "", 0, fmt.Errorf("%w: frame kind %d in log segment", ErrCorrupt, kind)
}

// countingReader tracks how many bytes have been consumed, so scans know
// the exact offset of the last fully valid frame.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// LastSeq returns the highest sequence known to the log (0 when empty).
func (l *Log) LastSeq() uint64 { return l.lastSeq }

// SegmentCount returns the number of live segment files.
func (l *Log) SegmentCount() int { return len(l.segs) }

// poison records the first disk-state failure and returns it unwrapped, so
// the caller sees the original cause; every later Append/Sync gets the
// sticky ErrPoisoned wrapper instead of a chance to interleave frames after
// a partial write.
func (l *Log) poison(err error) error {
	if l.err == nil {
		l.err = fmt.Errorf("%w: %v", ErrPoisoned, err)
	}
	return err
}

// Append logs one batch under seq, which must be exactly lastSeq+1 (any
// positive seq when the log is empty and has no recovered history). The
// batch is durable per the fsync policy once Append returns nil.
func (l *Log) Append(seq uint64, b graph.Batch) error {
	if err := l.append(seq, b); err != nil {
		return err
	}
	return l.syncPolicy()
}

// append writes an untagged batch frame without running the fsync policy —
// the seam Durable's append path uses to batch many appends under one sync.
func (l *Log) append(seq uint64, b graph.Batch) error {
	return l.appendKind(seq, KindBatch, EncodeBatch(nil, seq, b))
}

// appendTagged writes a batch frame carrying a client idempotency key; an
// empty clientID falls back to the untagged kind.
func (l *Log) appendTagged(seq uint64, clientID string, clientSeq uint64, b graph.Batch) error {
	if clientID == "" {
		return l.append(seq, b)
	}
	return l.appendKind(seq, KindBatchTagged, EncodeTaggedBatch(nil, seq, clientID, clientSeq, b))
}

// appendKind writes one already-encoded batch payload under seq. Failures
// that may have left bytes on disk (torn write, short write, rotate) poison
// the log; sequence-validation errors change nothing and do not.
func (l *Log) appendKind(seq uint64, kind byte, payload []byte) error {
	if l.err != nil {
		return l.err
	}
	if seq == 0 {
		return fmt.Errorf("wal: sequence numbers start at 1")
	}
	if l.lastSeq != 0 && seq != l.lastSeq+1 {
		return fmt.Errorf("wal: append seq %d, want %d (duplicate or gap)", seq, l.lastSeq+1)
	}
	t0 := time.Now()
	if l.f == nil || l.size >= l.opts.segmentBytes() {
		if err := l.rotate(seq); err != nil {
			return l.poison(err)
		}
	}
	l.buf = AppendFrame(l.buf[:0], kind, payload)
	if tear, err := l.opts.fire("append.write"); err != nil {
		if tear >= 0 && tear < len(l.buf) {
			l.f.Write(l.buf[:tear])
		}
		return l.poison(err)
	}
	if _, err := l.f.Write(l.buf); err != nil {
		// Part of the frame may be on disk; l.size no longer matches the
		// file offset, so no further frame may be appended to this handle.
		return l.poison(fmt.Errorf("wal: append: %w", err))
	}
	l.size += int64(len(l.buf))
	l.lastSeq = seq
	l.sinceSync++
	if l.appends != nil {
		l.appends.Inc()
	}
	if l.appendNs != nil {
		l.appendNs.Observe(time.Since(t0).Nanoseconds())
	}
	return nil
}

// syncPolicy applies the configured fsync policy after an append.
func (l *Log) syncPolicy() error {
	switch l.opts.Policy {
	case FsyncAlways:
		return l.Sync()
	case FsyncInterval:
		if l.sinceSync >= l.opts.fsyncEvery() {
			return l.Sync()
		}
	}
	return nil
}

// rotate closes the active segment (synced, so a finished segment is never
// partially persisted) and starts a new one whose name carries firstSeq.
func (l *Log) rotate(firstSeq uint64) error {
	if _, err := l.opts.fire("rotate.create"); err != nil {
		return err
	}
	if l.f != nil {
		if l.opts.Policy != FsyncOff {
			if err := l.f.Sync(); err != nil {
				return fmt.Errorf("wal: rotate: %w", err)
			}
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: rotate: %w", err)
		}
		if l.rotations != nil {
			l.rotations.Inc()
		}
	}
	path := filepath.Join(l.opts.Dir, segName(firstSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	l.f, l.size = f, 0
	l.segs = append(l.segs, segment{path: path, first: firstSeq})
	l.opts.syncDir()
	return nil
}

// Sync forces the active segment to stable storage. A failed fsync poisons
// the log: the kernel may have dropped the dirty pages, so retrying the
// sync cannot make the acknowledged frames durable.
func (l *Log) Sync() error {
	if l.err != nil {
		return l.err
	}
	if l.f == nil || l.sinceSync == 0 {
		return nil
	}
	if _, err := l.opts.fire("append.sync"); err != nil {
		return l.poison(err)
	}
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		return l.poison(fmt.Errorf("wal: sync: %w", err))
	}
	l.sinceSync = 0
	if l.fsyncs != nil {
		l.fsyncs.Inc()
	}
	if l.fsyncNs != nil {
		l.fsyncNs.Observe(time.Since(t0).Nanoseconds())
	}
	return nil
}

// Replay streams every valid frame with sequence in (fromSeq, lastSeq] to
// fn, in order, and propagates fn's first error. Damage in the *tail*
// segment — a torn or corrupt final frame, or a sequence chain that simply
// ends — is the expected shape of a crash, so replay stops cleanly there
// with a nil error (Open's repair makes that point the end of the log).
// Damage in any earlier segment is different: every later segment still
// holds valid acknowledged frames that a silent stop would drop, so
// mid-log corruption is reported as an ErrCorrupt-wrapped error instead of
// being passed off as a short log.
func (l *Log) Replay(fromSeq uint64, fn func(seq uint64, b graph.Batch) error) error {
	return l.ReplayTagged(fromSeq, func(seq uint64, b graph.Batch, _ string, _ uint64) error {
		return fn(seq, b)
	})
}

// ReplayTagged is Replay with the client idempotency tag surfaced: frames
// written by appendTagged yield their (clientID, clientSeq); untagged frames
// yield ("", 0). Recovery uses it to rebuild the dedup window alongside the
// engine state.
func (l *Log) ReplayTagged(fromSeq uint64, fn func(seq uint64, b graph.Batch, clientID string, clientSeq uint64) error) error {
	prev := fromSeq
	for i, s := range l.segs {
		tail := i == len(l.segs)-1
		midLog := func(what string) error {
			return fmt.Errorf("wal: replay: %w: %s in non-tail segment %s (later segments hold valid frames)",
				ErrCorrupt, what, filepath.Base(s.path))
		}
		f, err := os.Open(s.path)
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		for {
			kind, payload, rerr := ReadFrame(f)
			if rerr == io.EOF {
				break
			}
			if rerr != nil || (kind != KindBatch && kind != KindBatchTagged) {
				f.Close()
				if tail {
					return nil // damaged tail: recovery keeps the prefix
				}
				return midLog("damaged frame")
			}
			seq, b, cid, cseq, derr := decodeAnyBatch(kind, payload)
			if derr != nil {
				f.Close()
				if tail {
					return nil
				}
				return midLog("undecodable batch")
			}
			if seq <= fromSeq {
				continue
			}
			if seq != prev+1 {
				f.Close()
				if tail {
					return nil // gap at the tail: later frames are unreachable
				}
				return midLog(fmt.Sprintf("sequence gap (%d after %d)", seq, prev))
			}
			if err := fn(seq, b, cid, cseq); err != nil {
				f.Close()
				return err
			}
			prev = seq
		}
		f.Close()
	}
	return nil
}

// TruncateThrough deletes segments whose every frame has sequence <= seq:
// after a snapshot at seq, those frames are covered by the snapshot and the
// log can shed them. The active segment is never deleted.
func (l *Log) TruncateThrough(seq uint64) error {
	keep := l.segs[:0]
	for i, s := range l.segs {
		// Segment i's frames end where segment i+1 begins; the last
		// segment is active and always kept.
		if i+1 < len(l.segs) && l.segs[i+1].first-1 <= seq {
			if _, err := l.opts.fire("truncate.remove"); err != nil {
				l.segs = append(keep, l.segs[i:]...)
				return err
			}
			if err := os.Remove(s.path); err != nil {
				return fmt.Errorf("wal: truncate: %w", err)
			}
			continue
		}
		keep = append(keep, s)
	}
	l.segs = keep
	l.opts.syncDir()
	return nil
}

// Close syncs (per policy) and closes the active segment.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	if l.opts.Policy != FsyncOff {
		if err := l.Sync(); err != nil {
			l.f.Close()
			l.f = nil
			return err
		}
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// resetTo discards every segment — valid only when all surviving frames
// are covered by a snapshot at seq — and restarts the sequence chain there,
// so the next append carries seq+1 into a fresh segment.
func (l *Log) resetTo(seq uint64) error {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	for _, s := range l.segs {
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("wal: reset: %w", err)
		}
	}
	l.segs = l.segs[:0]
	l.size = 0
	l.lastSeq = seq
	l.sinceSync = 0
	l.opts.syncDir()
	return nil
}

// abandon drops the file handle without syncing or closing cleanly — the
// crash fuzzer's stand-in for process death (the OS keeps written bytes).
func (l *Log) abandon() {
	if l.f != nil {
		l.f.Close() // release the fd; written data stays in the page cache
		l.f = nil
	}
}

// syncDir best-effort fsyncs a directory so renames and unlinks are
// durable; some platforms reject directory fsync, which we tolerate.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// syncDir fsyncs the log directory unless the policy is FsyncOff — with
// durability off, directory metadata syscalls are pure overhead.
func (o Options) syncDir() {
	if o.Policy != FsyncOff {
		syncDir(o.Dir)
	}
}
