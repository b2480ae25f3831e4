package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// SnapshotData is one decoded snapshot: the graph content plus the engine
// state — values and key-edge parents (a KindSnapState frame; Parent is nil
// for the local family), or the accumulative residual state (a
// KindSnapAccState frame). The frame kind says which; a family restoring
// from the other's snapshot finds its own fields empty and refuses.
type SnapshotData struct {
	Seq    uint64
	NumV   int
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

// writeSnapshot frames one snapshot file: header, edges, the state frame of
// the given kind, the optional dedup frame, footer. Only dedup entries whose
// walSeq the snapshot covers are persisted, so a snapshot can never assert
// exactly-once for a batch whose frame it might outlive.
func writeSnapshot(opts Options, seq uint64, g *graph.Streaming, kind byte, state []byte, dedup *DedupTable) error {
	if _, err := opts.fire("snapshot.write"); err != nil {
		return err
	}
	var buf []byte
	var hdr [12]byte
	putU64(hdr[0:8], seq)
	putU32(hdr[8:12], uint32(g.NumVertices()))
	buf = AppendFrame(buf, KindSnapHeader, hdr[:])
	buf = AppendFrame(buf, KindSnapEdges, EncodeEdges(nil, g.Edges()))
	buf = AppendFrame(buf, kind, state)
	if dedup != nil {
		buf = AppendFrame(buf, KindSnapDedup, dedup.Encode(nil, seq))
	}
	buf = AppendFrame(buf, KindSnapFooter, hdr[0:8])
	return writeSnapshotFile(opts, seq, buf)
}

// writeSnapshotFile is the shared atomic-and-durable tail of every snapshot
// writer: temp file, write, policy-gated fsync, rename into the visible
// name, directory sync — with the crash-injection hooks at each boundary.
func writeSnapshotFile(opts Options, seq uint64, buf []byte) error {
	tmp := filepath.Join(opts.Dir, SnapName(seq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if _, err := opts.fire("snapshot.sync"); err != nil {
		f.Close()
		return err
	}
	if opts.Policy != FsyncOff {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: snapshot: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if _, err := opts.fire("snapshot.rename"); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(opts.Dir, SnapName(seq))); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	opts.syncDir()
	return nil
}

// ReadSnapshot loads and fully validates one snapshot file: frame CRCs,
// frame order, decoded payload bounds, and header/footer sequence
// agreement. Any violation returns an error; the caller falls back to an
// older snapshot.
func ReadSnapshot(path string) (*SnapshotData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot: %w", err)
	}
	defer f.Close()

	next := func(want byte) ([]byte, error) {
		kind, payload, err := ReadFrame(f)
		if err != nil {
			return nil, fmt.Errorf("wal: snapshot %s: %w", filepath.Base(path), err)
		}
		if kind != want {
			return nil, fmt.Errorf("%w: snapshot frame kind %d, want %d", ErrCorrupt, kind, want)
		}
		return payload, nil
	}

	hdr, err := next(KindSnapHeader)
	if err != nil {
		return nil, err
	}
	if len(hdr) != 12 {
		return nil, fmt.Errorf("%w: snapshot header %d bytes", ErrCorrupt, len(hdr))
	}
	sd := &SnapshotData{Seq: getU64(hdr[0:8]), NumV: int(getU32(hdr[8:12]))}
	if sd.NumV < 0 || sd.NumV > 1<<28 {
		return nil, fmt.Errorf("%w: snapshot declares %d vertices", ErrCorrupt, sd.NumV)
	}
	edgesP, err := next(KindSnapEdges)
	if err != nil {
		return nil, err
	}
	if sd.Edges, err = DecodeEdges(edgesP, sd.NumV); err != nil {
		return nil, err
	}
	// The state frame's kind names the engine family that wrote it.
	kind, payload, err := ReadFrame(f)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: %w", filepath.Base(path), err)
	}
	switch kind {
	case KindSnapState:
		sd.Vals, sd.Parent, err = DecodeState(payload, sd.NumV, sd.NumV)
	case KindSnapAccState:
		sd.Acc, err = DecodeAccState(payload, sd.NumV)
	default:
		err = fmt.Errorf("%w: snapshot frame kind %d, want a state frame", ErrCorrupt, kind)
	}
	if err != nil {
		return nil, err
	}
	// The dedup frame is optional (older snapshots and dedup-off wrappers
	// omit it); whichever of KindSnapDedup/KindSnapFooter comes next decides.
	if kind, payload, err = ReadFrame(f); err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: %w", filepath.Base(path), err)
	}
	if kind == KindSnapDedup {
		if sd.Dedup, err = DecodeDedupTable(payload); err != nil {
			return nil, err
		}
		if payload, err = next(KindSnapFooter); err != nil {
			return nil, err
		}
		kind = KindSnapFooter
	}
	if kind != KindSnapFooter {
		return nil, fmt.Errorf("%w: snapshot frame kind %d, want %d", ErrCorrupt, kind, KindSnapFooter)
	}
	footer := payload
	if len(footer) != 8 || getU64(footer) != sd.Seq {
		return nil, fmt.Errorf("%w: snapshot footer disagrees with header", ErrCorrupt)
	}
	if _, _, err := ReadFrame(f); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after snapshot footer", ErrCorrupt)
	}
	return sd, nil
}

// removeSnapshot deletes one snapshot file (retention), firing the
// crash-injection hook first.
func removeSnapshot(opts Options, seq uint64) error {
	if _, err := opts.fire("snapshot.remove"); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(opts.Dir, SnapName(seq))); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	opts.syncDir()
	return nil
}
