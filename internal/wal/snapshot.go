package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/graph"
)

// Snapshot files. A snapshot at sequence s captures the graph and engine
// state after every batch with sequence <= s was applied: recovery restores
// it and replays only the WAL frames with sequence > s. Snapshots are
// written to a temp file and renamed into place, so a crash mid-write
// leaves no half snapshot under the visible name; the footer frame is the
// belt to that suspender (a truncated rename-less file is never listed, a
// bit-flipped listed one fails its CRC or misses the footer).

const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

// SnapName returns the snapshot filename for sequence seq.
func SnapName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix)
}

func snapSeqOf(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	hexa := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if len(hexa) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexa, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Snapshots lists the snapshot sequences present in dir, ascending.
func Snapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if s, ok := snapSeqOf(e.Name()); ok {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// SnapshotData is one decoded snapshot: the graph content plus the state
// frame, whose kind says which fields it filled — values and key-edge
// parents for KindSnapState (Parent is nil for the local family) and
// KindDistCheckpoint (a distributed worker's view), or the accumulative
// residual state for KindSnapAccState.
type SnapshotData struct {
	Seq    uint64
	NumV   int
	Kind   byte
	Edges  []graph.Edge
	Vals   []float64
	Parent []int32
	Acc    *engine.AccState
	// Dedup is the persisted exactly-once ingest window, consistent with
	// Seq; nil for snapshots written before dedup existed or with it off.
	Dedup *DedupTable
}

// WriteSnapshot persists a snapshot of g and the selective engine state at
// seq into opts.Dir, atomically (temp file + rename) and durably (file and
// directory synced unless the policy is FsyncOff), without a dedup frame.
func WriteSnapshot(opts Options, seq uint64, g *graph.Streaming, vals []float64, parent []int32) error {
	return writeSnapshot(opts, seq, g, KindSnapState, EncodeState(nil, vals, parent), nil)
}

// WriteAccSnapshot is WriteSnapshot for the accumulative residual state.
func WriteAccSnapshot(opts Options, seq uint64, g *graph.Streaming, st *engine.AccState) error {
	return writeSnapshot(opts, seq, g, KindSnapAccState, EncodeAccState(nil, g.NumVertices(), st), nil)
}

// WriteWorkerSnapshot is WriteSnapshot for a distributed worker's view. Its
// KindDistCheckpoint state frame repeats seq inside the checksummed payload,
// so a state frame spliced under another snapshot's header is caught even
// when header and footer agree with each other.
func WriteWorkerSnapshot(opts Options, seq uint64, g *graph.Streaming, vals []float64, parent []int32) error {
	state := EncodeState(binary.LittleEndian.AppendUint64(nil, seq), vals, parent)
	return writeSnapshot(opts, seq, g, KindDistCheckpoint, state, nil)
}

// writeSnapshot persists one snapshot of g, which the caller does not
// mutate meanwhile, with the given state frame.
func writeSnapshot(opts Options, seq uint64, g *graph.Streaming, kind byte, state []byte, dedup *DedupTable) error {
	v := g.Freeze()
	defer v.Release()
	return writeSnapshotView(opts, seq, v, kind, state, dedupFrame(dedup, seq))
}

// dedupFrame encodes the dedup frame's payload for a snapshot at seq (nil:
// no frame). Only entries whose walSeq the snapshot covers are persisted,
// so a snapshot can never assert exactly-once for a batch whose frame it
// might outlive.
func dedupFrame(dedup *DedupTable, seq uint64) []byte {
	if dedup == nil {
		return nil
	}
	return dedup.Encode(nil, seq)
}

// writeSnapshotView is the one snapshot writer: it streams header, edges
// (the view's sorted walk), the state frame of the given kind, the dedup
// frame when dedup is non-nil, and the footer into the snapshot file. It
// holds no edge list and no file image: memory is the frame buffer plus
// O(max degree) sort scratch. The view may be read concurrently with
// mutation of its graph (graph.Frozen).
func writeSnapshotView(opts Options, seq uint64, v *graph.Frozen, kind byte, state, dedup []byte) error {
	if _, err := opts.fire("snapshot.write"); err != nil {
		return err
	}
	return writeSnapshotFile(opts, seq, func(w *frameWriter) error {
		var hdr Enc
		hdr.U64(seq)
		hdr.U32(uint32(v.NumVertices()))
		w.frame(KindSnapHeader, hdr.B)
		w.begin(KindSnapEdges)
		w.write(binary.LittleEndian.AppendUint32(nil, uint32(v.NumEdges())))
		v.SortedSpans(func(src graph.VertexID, span []graph.Half) error {
			for _, h := range span {
				w.edge(src, h)
			}
			return w.err
		})
		w.end()
		w.frame(kind, state)
		if dedup != nil {
			w.frame(KindSnapDedup, dedup)
		}
		w.frame(KindSnapFooter, hdr.B[0:8])
		w.flush()
		return w.err
	})
}

// writeSnapshotFile is the shared atomic-and-durable tail of every snapshot
// writer: temp file, streamed encode, policy-gated fsync, rename into the
// visible name, directory sync — with the crash-injection hooks at each
// boundary. A real failure removes the temp file; an injected crash models
// process death, which removes nothing (NewDurable and Recover sweep such
// leftovers with removeStaleTemps).
func writeSnapshotFile(opts Options, seq uint64, encode func(w *frameWriter) error) error {
	tmp := filepath.Join(opts.Dir, SnapName(seq)+tmpSuffix)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := encode(newFrameWriter(f)); err != nil {
		return fail(err)
	}
	if _, err := opts.fire("snapshot.sync"); err != nil {
		f.Close()
		return err
	}
	if opts.Policy != FsyncOff {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	if _, err := opts.fire("snapshot.rename"); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(opts.Dir, SnapName(seq))); err != nil {
		return fail(err)
	}
	opts.syncDir()
	return nil
}

// tmpSuffix marks a snapshot still being written.
const tmpSuffix = ".tmp"

// removeStaleTemps deletes every snapshot temp file in dir: each is the
// remains of a writer that died before its rename, as large as a full
// snapshot and never listed by Snapshots. Call it only while no snapshot
// writer runs over dir.
func removeStaleTemps(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		if n := e.Name(); strings.HasPrefix(n, snapPrefix) && strings.HasSuffix(n, snapSuffix+tmpSuffix) {
			if err := os.Remove(filepath.Join(dir, n)); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
		}
	}
	return nil
}

// ReadSnapshot loads and fully validates one snapshot file: the file name
// (retention and log truncation key on the seq it carries, so a renamed or
// cross-copied file must not load), frame CRCs, frame order, decoded payload
// bounds, and header/footer sequence agreement. Any violation returns an
// error; the caller falls back to an older snapshot.
func ReadSnapshot(path string) (*SnapshotData, error) {
	name := filepath.Base(path)
	nameSeq, ok := snapSeqOf(name)
	if !ok {
		return nil, fmt.Errorf("wal: snapshot: %s is not a snapshot file name", name)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot: %w", err)
	}
	defer f.Close()

	// next reads the next frame, which must be of one of the wanted kinds.
	next := func(want ...byte) (byte, []byte, error) {
		kind, payload, err := ReadFrame(f)
		if err != nil {
			return 0, nil, fmt.Errorf("wal: snapshot %s: %w", name, err)
		}
		if !slices.Contains(want, kind) {
			return 0, nil, fmt.Errorf("%w: snapshot frame kind %d, want one of %v", ErrCorrupt, kind, want)
		}
		return kind, payload, nil
	}

	_, hdr, err := next(KindSnapHeader)
	if err != nil {
		return nil, err
	}
	d := Dec{B: hdr}
	sd := &SnapshotData{Seq: d.U64(), NumV: int(d.U32())}
	if err := d.Err("snapshot header"); err != nil {
		return nil, err
	}
	if sd.Seq != nameSeq {
		return nil, fmt.Errorf("%w: snapshot %s holds seq %d", ErrCorrupt, name, sd.Seq)
	}
	if sd.NumV < 0 || sd.NumV > 1<<28 {
		return nil, fmt.Errorf("%w: snapshot declares %d vertices", ErrCorrupt, sd.NumV)
	}
	_, edges, err := next(KindSnapEdges)
	if err != nil {
		return nil, err
	}
	d = Dec{B: edges}
	sd.Edges = d.Edges(sd.NumV)
	if err := d.Err("snapshot edges"); err != nil {
		return nil, err
	}
	// The state frame's kind names the family that wrote it.
	kind, state, err := next(KindSnapState, KindSnapAccState, KindDistCheckpoint)
	if err != nil {
		return nil, err
	}
	sd.Kind = kind
	switch kind {
	case KindSnapState:
		sd.Vals, sd.Parent, err = DecodeState(state, sd.NumV, sd.NumV)
	case KindSnapAccState:
		sd.Acc, err = DecodeAccState(state, sd.NumV)
	case KindDistCheckpoint:
		if len(state) < 8 || binary.LittleEndian.Uint64(state) != sd.Seq {
			err = fmt.Errorf("%w: worker state seq disagrees with header %d", ErrCorrupt, sd.Seq)
		} else {
			sd.Vals, sd.Parent, err = DecodeState(state[8:], sd.NumV, sd.NumV)
		}
	}
	if err != nil {
		return nil, err
	}
	// The dedup frame is optional (older snapshots and dedup-off wrappers
	// omit it); whichever of KindSnapDedup/KindSnapFooter comes next decides.
	kind, footer, err := next(KindSnapDedup, KindSnapFooter)
	if err != nil {
		return nil, err
	}
	if kind == KindSnapDedup {
		if sd.Dedup, err = DecodeDedupTable(footer); err != nil {
			return nil, err
		}
		if _, footer, err = next(KindSnapFooter); err != nil {
			return nil, err
		}
	}
	if len(footer) != 8 || binary.LittleEndian.Uint64(footer) != sd.Seq {
		return nil, fmt.Errorf("%w: snapshot footer disagrees with header", ErrCorrupt)
	}
	if _, _, err := ReadFrame(f); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after snapshot footer", ErrCorrupt)
	}
	return sd, nil
}

// LoadSnapshot returns the newest snapshot in dir that validates and holds
// a state frame of the given kind, falling back to older ones (retention
// guarantees the log still covers the older one when the newest is
// damaged). A snapshot of another kind belongs to another family and is
// refused like a damaged one. ErrNoSnapshot means dir holds none at all.
func LoadSnapshot(dir string, kind byte) (*SnapshotData, error) {
	seqs, err := Snapshots(dir)
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		return nil, ErrNoSnapshot
	}
	var lastErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		sd, err := ReadSnapshot(filepath.Join(dir, SnapName(seqs[i])))
		if err == nil && sd.Kind != kind {
			err = fmt.Errorf("wal: snapshot %d holds state kind %d, want %d", sd.Seq, sd.Kind, kind)
		}
		if err == nil {
			return sd, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("wal: no snapshot validates: %w", lastErr)
}

// snapRetain is how many snapshots survive retention. Two, not one: the WAL
// is truncated only through the *older* retained snapshot, so even if the
// newest snapshot is lost to bit rot, the older one plus the untrimmed log
// tail still reconstructs every acknowledged batch.
const snapRetain = 2

// PruneSnapshots deletes all but the snapRetain newest snapshots in
// opts.Dir. Once snapRetain remain, it returns the older one's sequence and
// ok: the caller may truncate its log through it.
func PruneSnapshots(opts Options) (trim uint64, ok bool, err error) {
	seqs, err := Snapshots(opts.Dir)
	if err != nil {
		return 0, false, err
	}
	for ; len(seqs) > snapRetain; seqs = seqs[1:] {
		if _, err := opts.fire("snapshot.remove"); err != nil {
			return 0, false, err
		}
		if err := os.Remove(filepath.Join(opts.Dir, SnapName(seqs[0]))); err != nil {
			return 0, false, fmt.Errorf("wal: snapshot: %w", err)
		}
		opts.syncDir()
	}
	if len(seqs) < snapRetain {
		return 0, false, nil
	}
	return seqs[0], true, nil
}
