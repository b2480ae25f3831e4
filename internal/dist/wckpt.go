package dist

// Per-worker durability for the socket runtime. Each worker process owns a
// directory holding:
//
//   - a wal.Log of applied batches, keyed by the cluster-global batch
//     sequence (the coordinator's boundary seq), and
//   - checkpoint files, each a frame-composed snapshot of the worker's full
//     view at a quiescent boundary:
//
//     [KindSnapHeader  seq + numV]
//     [KindSnapEdges   current edge list]
//     [KindDistCheckpoint  8B seq + EncodeState(vals, parent)]
//     [KindSnapFooter  seq]
//
// Checkpoints are written atomically (temp + rename + fsync) and validated
// frame-by-frame on load, falling back to the previous checkpoint when the
// newest is torn or corrupt — the same trust model as wal.ReadSnapshot. The
// KindDistCheckpoint frame (rather than KindSnapState) marks the file as a
// distributed-runtime artifact and carries the boundary seq redundantly
// inside the checksummed payload, so a state frame spliced under another
// checkpoint's header is caught even if header and footer agree with each
// other. The file name carries the seq a fourth time, and it is the copy
// retention and log truncation key on, so the reader also refuses a file
// whose name disagrees with its header (a renamed or cross-copied file),
// and anything after the footer frame.
//
// Retention keeps the two newest checkpoints; after a successful
// checkpoint the batch log is truncated through the older retained seq, so
// a restart replays at most (checkpoint interval) batches — and if the
// newest checkpoint is damaged, the older one plus the surviving log tail
// still reconstructs the same state.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/wal"
)

const (
	wckptPrefix = "wckpt-"
	wckptSuffix = ".ckpt"
	// wckptRetain is how many checkpoints survive retention. Two for the
	// same reason durable.go keeps two snapshots: the log is only truncated
	// past the OLDER retained one, so the newer being corrupt never strands
	// the worker.
	wckptRetain = 2
)

func wckptName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", wckptPrefix, seq, wckptSuffix)
}

func wckptSeqOf(name string) (uint64, bool) {
	if !strings.HasPrefix(name, wckptPrefix) || !strings.HasSuffix(name, wckptSuffix) {
		return 0, false
	}
	hexa := strings.TrimSuffix(strings.TrimPrefix(name, wckptPrefix), wckptSuffix)
	if len(hexa) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexa, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listWorkerCkpts returns the checkpoint sequences in dir, ascending.
func listWorkerCkpts(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dist: ckpt: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if s, ok := wckptSeqOf(e.Name()); ok {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// workerCkpt is one decoded worker checkpoint.
type workerCkpt struct {
	Seq    uint64
	NumV   int
	Edges  []graph.Edge
	Vals   []float64
	Parent []int32
}

// writeWorkerCkpt persists the worker's full view at boundary seq.
func writeWorkerCkpt(dir string, seq uint64, g *graph.Streaming, vals []float64, parent []int32) error {
	numV := g.NumVertices()
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], seq)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(numV))
	var buf []byte
	buf = wal.AppendFrame(buf, wal.KindSnapHeader, hdr[:])
	buf = wal.AppendFrame(buf, wal.KindSnapEdges, wal.EncodeEdges(nil, g.Edges()))
	buf = wal.AppendFrame(buf, wal.KindDistCheckpoint, wal.EncodeDistCheckpoint(nil, seq, vals, parent))
	buf = wal.AppendFrame(buf, wal.KindSnapFooter, hdr[0:8])

	tmp := filepath.Join(dir, wckptName(seq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("dist: ckpt: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("dist: ckpt: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("dist: ckpt: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dist: ckpt: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, wckptName(seq))); err != nil {
		return fmt.Errorf("dist: ckpt: %w", err)
	}
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// readWorkerCkpt loads and fully validates one checkpoint file, named as
// wckptName names it.
func readWorkerCkpt(path string) (*workerCkpt, error) {
	nameSeq, ok := wckptSeqOf(filepath.Base(path))
	if !ok {
		return nil, fmt.Errorf("dist: ckpt: %s is not a checkpoint file name", filepath.Base(path))
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dist: ckpt: %w", err)
	}
	defer f.Close()
	next := func(want byte) ([]byte, error) {
		kind, payload, err := wal.ReadFrame(f)
		if err != nil {
			return nil, fmt.Errorf("dist: ckpt %s: %w", filepath.Base(path), err)
		}
		if kind != want {
			return nil, fmt.Errorf("%w: ckpt frame kind %d, want %d", wal.ErrCorrupt, kind, want)
		}
		return payload, nil
	}
	hdr, err := next(wal.KindSnapHeader)
	if err != nil {
		return nil, err
	}
	if len(hdr) != 12 {
		return nil, fmt.Errorf("%w: ckpt header %d bytes", wal.ErrCorrupt, len(hdr))
	}
	ck := &workerCkpt{Seq: binary.LittleEndian.Uint64(hdr[0:8]), NumV: int(binary.LittleEndian.Uint32(hdr[8:12]))}
	if ck.Seq != nameSeq {
		return nil, fmt.Errorf("%w: ckpt %s holds seq %d", wal.ErrCorrupt, filepath.Base(path), ck.Seq)
	}
	if ck.NumV < 0 || ck.NumV > 1<<28 {
		return nil, fmt.Errorf("%w: ckpt declares %d vertices", wal.ErrCorrupt, ck.NumV)
	}
	edgesP, err := next(wal.KindSnapEdges)
	if err != nil {
		return nil, err
	}
	if ck.Edges, err = wal.DecodeEdges(edgesP, ck.NumV); err != nil {
		return nil, err
	}
	stateP, err := next(wal.KindDistCheckpoint)
	if err != nil {
		return nil, err
	}
	var innerSeq uint64
	if innerSeq, ck.Vals, ck.Parent, err = wal.DecodeDistCheckpoint(stateP, ck.NumV, ck.NumV); err != nil {
		return nil, err
	}
	if innerSeq != ck.Seq {
		return nil, fmt.Errorf("%w: ckpt state seq %d disagrees with header %d", wal.ErrCorrupt, innerSeq, ck.Seq)
	}
	footer, err := next(wal.KindSnapFooter)
	if err != nil {
		return nil, err
	}
	if len(footer) != 8 || binary.LittleEndian.Uint64(footer) != ck.Seq {
		return nil, fmt.Errorf("%w: ckpt footer disagrees with header", wal.ErrCorrupt)
	}
	if _, _, err := wal.ReadFrame(f); err != io.EOF {
		return nil, fmt.Errorf("%w: ckpt %s has data after the footer", wal.ErrCorrupt, filepath.Base(path))
	}
	return ck, nil
}

// loadWorkerCkpt returns the newest intact checkpoint in dir, trying older
// ones when the newest fails validation. Returns (nil, nil) when the
// directory holds no usable checkpoint at all (fresh worker).
func loadWorkerCkpt(dir string) (*workerCkpt, error) {
	seqs, err := listWorkerCkpts(dir)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		ck, err := readWorkerCkpt(filepath.Join(dir, wckptName(seqs[i])))
		if err == nil {
			return ck, nil
		}
		lastErr = err
	}
	if lastErr != nil && !errors.Is(lastErr, os.ErrNotExist) {
		// Every candidate failed — report the newest failure; the caller
		// decides whether to start fresh or abort.
		return nil, lastErr
	}
	return nil, nil
}

// workerStore is a worker's durable half: the applied-batch log plus
// checkpoint files, with retention.
type workerStore struct {
	dir  string
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
	return &workerStore{dir: dir, opts: opts, log: log}, nil
}

// appendBatch logs one applied batch under the global boundary seq and
// forces it to disk before the worker acknowledges the boundary.
func (s *workerStore) appendBatch(seq uint64, applied graph.Batch) error {
	if err := s.log.Append(seq, applied); err != nil {
		return err
	}
	return s.log.Sync()
}

// checkpoint writes the checkpoint at seq, applies retention, and truncates
// the batch log through the older retained checkpoint.
func (s *workerStore) checkpoint(seq uint64, g *graph.Streaming, vals []float64, parent []int32) error {
	if err := writeWorkerCkpt(s.dir, seq, g, vals, parent); err != nil {
		return err
	}
	seqs, err := listWorkerCkpts(s.dir)
	if err != nil {
		return err
	}
	for len(seqs) > wckptRetain {
		if err := os.Remove(filepath.Join(s.dir, wckptName(seqs[0]))); err != nil {
			return fmt.Errorf("dist: ckpt: %w", err)
		}
		seqs = seqs[1:]
	}
	if len(seqs) == wckptRetain {
		return s.log.TruncateThrough(seqs[0])
	}
	return nil
}

// loadCkpt returns the newest intact checkpoint, or nil for a fresh store.
func (s *workerStore) loadCkpt() (*workerCkpt, error) { return loadWorkerCkpt(s.dir) }

// replay hands every logged batch with seq in (from, lastSeq] to fn, in
// order (same exclusive-from contract as wal.Log.Replay).
func (s *workerStore) replay(from uint64, fn func(seq uint64, b graph.Batch) error) error {
	return s.log.Replay(from, fn)
}

// lastSeq is the highest batch seq in the log (0 when empty).
func (s *workerStore) lastSeq() uint64 { return s.log.LastSeq() }

// wipe discards every durable artifact and reopens the store empty. A
// worker wipes when the coordinator sends a full state transfer: the local
// history diverged too far for the log tail to ever matter again, and a
// stale base under a fresh log would corrupt the next recovery.
func (s *workerStore) wipe() error {
	if err := s.log.Close(); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("dist: store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil {
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
