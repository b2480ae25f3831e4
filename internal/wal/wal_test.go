package wal

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rng"
)

// --- codec ---

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xab}, 1000)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, p := range payloads {
		kind, got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != byte(i+1) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: kind=%d len=%d", i, kind, len(got))
		}
	}
	if _, _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestFrameTornAndCorrupt(t *testing.T) {
	frame := AppendFrame(nil, KindBatch, []byte("hello world"))
	// Every proper prefix is torn (or EOF for the empty prefix).
	for cut := 1; cut < len(frame); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(frame[:cut]))
		if err != ErrTorn {
			t.Fatalf("cut=%d: want ErrTorn, got %v", cut, err)
		}
	}
	// Every single-bit flip anywhere in the frame is detected: CRC32C
	// catches all 1-bit errors, and header flips either break the CRC,
	// declare an impossible length (corrupt), or over-declare (torn).
	for i := 0; i < len(frame); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 1 << bit
			_, _, err := ReadFrame(bytes.NewReader(mut))
			if err != ErrCorrupt && err != ErrTorn {
				t.Fatalf("flip byte %d bit %d: want corrupt/torn, got %v", i, bit, err)
			}
		}
	}
}

// TestFrameMultiChunk: a body larger than the reader's first allocation
// arrives intact through the growing buffer, and tears at every chunk edge.
func TestFrameMultiChunk(t *testing.T) {
	payload := make([]byte, 5*frameChunk+12345)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	frame := AppendFrame(nil, KindSnapEdges, payload)
	kind, got, err := ReadFrame(bytes.NewReader(frame))
	if err != nil || kind != KindSnapEdges || !bytes.Equal(got, payload) {
		t.Fatalf("kind=%d len=%d err=%v", kind, len(got), err)
	}
	for _, cut := range []int{frameHeaderLen + frameChunk, frameHeaderLen + 2*frameChunk, frameHeaderLen + 4*frameChunk, len(frame) - 1} {
		if _, _, err := ReadFrame(bytes.NewReader(frame[:cut])); err != ErrTorn {
			t.Fatalf("cut=%d: want ErrTorn, got %v", cut, err)
		}
	}
}

// TestReadFrameBoundedAlloc: the declared length is untrusted input (a WAL
// segment, a checkpoint, a peer on dist/wire or serve/wire). A header that
// declares MaxFrameLen over a 16-byte input must come back torn having
// allocated about what was present, not the gigabyte it asked for.
func TestReadFrameBoundedAlloc(t *testing.T) {
	var in [16]byte
	binary.LittleEndian.PutUint32(in[0:4], MaxFrameLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(in[:]))
	runtime.ReadMemStats(&after)
	if err != ErrTorn {
		t.Fatalf("want ErrTorn, got %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("ReadFrame allocated %d bytes for a 16-byte input", got)
	}
}

// FuzzReadFrame: arbitrary bytes never panic the frame reader, every
// accepted frame re-encodes to the bytes it was read from, and whatever
// AppendFrame writes reads back. Seeded with the torn-write and bit-flip
// corpus of TestFrameTornAndCorrupt.
func FuzzReadFrame(f *testing.F) {
	frame := AppendFrame(nil, KindBatch, []byte("hello world"))
	f.Add(frame)
	f.Add(append(AppendFrame(nil, KindSnapFooter, nil), frame...))
	for cut := 0; cut < len(frame); cut++ {
		f.Add(frame[:cut])
	}
	for i := 0; i < len(frame); i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 1 << (i % 8)
		f.Add(mut)
	}
	huge := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(huge[0:4], MaxFrameLen)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			at := len(data) - r.Len()
			kind, payload, err := ReadFrame(r)
			if err != nil {
				if err != io.EOF && err != ErrTorn && err != ErrCorrupt {
					t.Fatalf("unexpected error %v", err)
				}
				break
			}
			if again := AppendFrame(nil, kind, payload); !bytes.Equal(again, data[at:len(data)-r.Len()]) {
				t.Fatalf("frame at %d does not re-encode to its own bytes", at)
			}
		}
		// The input as a payload: what AppendFrame writes, ReadFrame returns.
		kind := byte(len(data))
		k, p, err := ReadFrame(bytes.NewReader(AppendFrame(nil, kind, data)))
		if err != nil || k != kind || !bytes.Equal(p, data) {
			t.Fatalf("round trip: kind=%d len=%d err=%v", k, len(p), err)
		}
	})
}

func TestBatchCodecRoundTrip(t *testing.T) {
	b := graph.Batch{
		{Edge: graph.Edge{Src: 1, Dst: 2, W: 3.5}},
		{Edge: graph.Edge{Src: 7, Dst: 0, W: 0.25}, Del: true},
	}
	seq, got, err := DecodeBatch(EncodeBatch(nil, 42, b))
	if err != nil || seq != 42 || len(got) != len(b) {
		t.Fatalf("seq=%d len=%d err=%v", seq, len(got), err)
	}
	for i := range b {
		if got[i] != b[i] {
			t.Fatalf("update %d: %+v != %+v", i, got[i], b[i])
		}
	}
	if _, _, err := DecodeBatch([]byte{1, 2, 3}); err == nil {
		t.Fatal("short payload must fail")
	}
}

func TestStateCodecValidation(t *testing.T) {
	vals := []float64{1, 2, math.Inf(1)}
	parent := []int32{-1, 0, 1}
	p := EncodeState(nil, vals, parent)
	gv, gp, err := DecodeState(p, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if gv[i] != vals[i] || gp[i] != parent[i] {
			t.Fatalf("i=%d", i)
		}
	}
	if _, _, err := DecodeState(p, 4, 4); err == nil {
		t.Fatal("count mismatch must fail")
	}
	bad := EncodeState(nil, vals, []int32{-1, 0, 3}) // parent 3 out of range
	if _, _, err := DecodeState(bad, 3, 3); err == nil {
		t.Fatal("out-of-range parent must fail")
	}
}

// --- log ---

func mkBatch(seq uint64, n int) graph.Batch {
	b := make(graph.Batch, n)
	for i := range b {
		b[i] = graph.Update{Edge: graph.Edge{Src: uint32(seq), Dst: uint32(i), W: float64(seq) + float64(i)/16}}
	}
	return b
}

func TestLogAppendReplayReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentBytes: 256, Policy: FsyncOff}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for s := uint64(1); s <= n; s++ {
		if err := l.Append(s, mkBatch(s, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if l.SegmentCount() < 2 {
		t.Fatalf("want rotation, got %d segments", l.SegmentCount())
	}
	if err := l.Append(5, mkBatch(5, 1)); err == nil {
		t.Fatal("duplicate seq must fail")
	}
	if err := l.Append(n+2, mkBatch(n+2, 1)); err == nil {
		t.Fatal("gap seq must fail")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if l2.LastSeq() != n {
		t.Fatalf("reopen LastSeq=%d want %d", l2.LastSeq(), n)
	}
	var seen []uint64
	if err := l2.Replay(7, func(seq uint64, b graph.Batch) error {
		if len(b) != 3 || b[0].Src != uint32(seq) {
			t.Fatalf("seq %d payload mangled", seq)
		}
		seen = append(seen, seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n-7 || seen[0] != 8 || seen[len(seen)-1] != n {
		t.Fatalf("replayed %v", seen)
	}
	if err := l2.Append(n+1, mkBatch(n+1, 2)); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	l2.Close()
}

func TestLogRepairTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Policy: FsyncOff}
	l, _ := Open(opts)
	for s := uint64(1); s <= 5; s++ {
		if err := l.Append(s, mkBatch(s, 4)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Tear the tail mid-frame.
	path := filepath.Join(dir, segName(1))
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if l2.LastSeq() != 4 {
		t.Fatalf("LastSeq=%d want 4 after torn tail", l2.LastSeq())
	}
	// The torn bytes are gone: appending seq 5 again continues the chain.
	if err := l2.Append(5, mkBatch(5, 1)); err != nil {
		t.Fatal(err)
	}
	count := 0
	l2.Replay(0, func(uint64, graph.Batch) error { count++; return nil })
	if count != 5 {
		t.Fatalf("replayed %d want 5", count)
	}
	l2.Close()
}

func TestLogRepairStopsAtBitFlip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentBytes: 128, Policy: FsyncOff}
	l, _ := Open(opts)
	for s := uint64(1); s <= 12; s++ {
		if err := l.Append(s, mkBatch(s, 2)); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.SegmentCount()
	if segs < 3 {
		t.Fatalf("want >=3 segments, got %d", segs)
	}
	first := l.segs[1] // corrupt the middle segment
	l.Close()
	data, _ := os.ReadFile(first.path)
	data[len(data)/2] ^= 0x40
	os.WriteFile(first.path, data, 0o644)

	l2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if l2.LastSeq() >= 12 || l2.LastSeq() < first.first-1 {
		t.Fatalf("LastSeq=%d after corrupting segment starting at %d", l2.LastSeq(), first.first)
	}
	// Later segments were removed; the chain continues from the repair point.
	if err := l2.Append(l2.LastSeq()+1, mkBatch(l2.LastSeq()+1, 1)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
}

func TestTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentBytes: 128, Policy: FsyncOff}
	l, _ := Open(opts)
	for s := uint64(1); s <= 12; s++ {
		l.Append(s, mkBatch(s, 2))
	}
	segs := l.SegmentCount()
	if segs < 3 {
		t.Fatalf("want >=3 segments, got %d", segs)
	}
	cut := l.segs[1].first // everything before segment 1 is disposable
	if err := l.TruncateThrough(cut - 1); err != nil {
		t.Fatal(err)
	}
	if l.SegmentCount() != segs-1 {
		t.Fatalf("segments %d want %d", l.SegmentCount(), segs-1)
	}
	// Replay resumes from the covering snapshot seq (cut-1); the dropped
	// frames are exactly those the snapshot covers.
	var first, count uint64
	l.Replay(cut-1, func(seq uint64, b graph.Batch) error {
		if first == 0 {
			first = seq
		}
		count++
		return nil
	})
	if first != cut || count != 12-(cut-1) {
		t.Fatalf("replayed %d frames from %d, want %d from %d", count, first, 12-(cut-1), cut)
	}
	l.Close()
}

// --- snapshots ---

func testWorkload(seed uint64, numV, batches, batchSize int) gen.Workload {
	r := rng.New(seed)
	edges := gen.Generate(gen.Config{Kind: gen.Kind(r.Intn(3)), NumV: numV, NumE: numV * 4,
		Seed: seed, A: 0.57, B: 0.19, C: 0.19, MaxWeight: 8})
	return gen.BuildWorkload(numV, edges, gen.StreamConfig{
		InitialFraction: 0.5, DeleteRatio: 0.3, BatchSize: batchSize,
		NumBatches: batches, Seed: seed ^ 0xabcdef,
	})
}

func TestSnapshotRoundTripAndFallback(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Policy: FsyncOff}
	w := testWorkload(11, 64, 1, 10)
	g := graph.FromEdges(w.NumV, w.Initial)
	vals, parent := algo.SolveSelective(g, algo.SSSP{Src: 0})
	if err := WriteSnapshot(opts, 9, g, vals, parent); err != nil {
		t.Fatal(err)
	}
	sd, err := ReadSnapshot(filepath.Join(dir, SnapName(9)))
	if err != nil {
		t.Fatal(err)
	}
	if sd.Seq != 9 || sd.NumV != w.NumV || len(sd.Edges) != len(g.Edges()) {
		t.Fatalf("snapshot mangled: %+v", sd)
	}
	for v := range vals {
		if sd.Vals[v] != vals[v] || sd.Parent[v] != parent[v] {
			t.Fatalf("state differs at %d", v)
		}
	}
	// Any single byte flip must be rejected, not loaded.
	path := filepath.Join(dir, SnapName(9))
	orig, _ := os.ReadFile(path)
	r := rng.New(5)
	for i := 0; i < 50; i++ {
		mut := append([]byte(nil), orig...)
		mut[r.Intn(len(mut))] ^= byte(1 + r.Intn(255))
		os.WriteFile(path, mut, 0o644)
		if _, err := ReadSnapshot(path); err == nil {
			t.Fatalf("flip %d accepted", i)
		}
	}
}

// --- durable wrapper end to end ---

// oracleVals solves the workload from scratch with the first n batches
// applied.
func oracleVals(t *testing.T, w gen.Workload, alg algo.Selective, n int) []float64 {
	t.Helper()
	g := graph.FromEdges(w.NumV, w.Initial)
	for _, b := range w.Batches[:n] {
		g.ApplyBatch(b)
	}
	vals, _ := algo.SolveSelective(g, alg)
	return vals
}

func valsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsInf(a[i], 1) && math.IsInf(b[i], 1)) &&
			!(math.IsInf(a[i], -1) && math.IsInf(b[i], -1)) {
			return false
		}
	}
	return true
}

func TestDurableRecoveryConvergesToOracle(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncOff, FsyncInterval, FsyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			reg := metrics.NewRegistry()
			w := testWorkload(23, 96, 8, 50)
			alg := algo.SSSP{Src: 0}
			dc := DurableConfig{
				Wal:           Options{Dir: dir, SegmentBytes: 1 << 12, Policy: policy, FsyncEvery: 2, Metrics: reg},
				SnapshotEvery: 3,
			}
			d, err := NewDurableSelective(graph.FromEdges(w.NumV, w.Initial), alg, engine.Config{Workers: 2}, dc)
			if err != nil {
				t.Fatal(err)
			}
			crashAt := 6 // die after acking 6 of 8 batches
			for i := 0; i < crashAt; i++ {
				if _, err := d.ProcessBatch(context.Background(), w.Batches[i]); err != nil {
					t.Fatal(err)
				}
			}
			d.Abandon() // process death: no Close, no final sync

			d2, rs, err := RecoverSelective(alg, engine.Config{Workers: 2}, dc)
			if err != nil {
				t.Fatal(err)
			}
			if rs.LastSeq != uint64(crashAt) {
				t.Fatalf("LastSeq=%d want %d", rs.LastSeq, crashAt)
			}
			if rs.Replayed != int(rs.LastSeq-rs.SnapshotSeq) {
				t.Fatalf("replayed %d, snapshot %d, last %d: duplicate or missed replay",
					rs.Replayed, rs.SnapshotSeq, rs.LastSeq)
			}
			if got := reg.Counter("recovery.replay_batches").Value(); got != int64(rs.Replayed) {
				t.Fatalf("recovery.replay_batches=%d want %d", got, rs.Replayed)
			}
			if !valsEqual(d2.Eng.Values(), oracleVals(t, w, alg, crashAt)) {
				t.Fatal("recovered state differs from from-scratch oracle")
			}
			// The recovered engine keeps working: feed the rest and re-check.
			for i := crashAt; i < len(w.Batches); i++ {
				if _, err := d2.ProcessBatch(context.Background(), w.Batches[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !valsEqual(d2.Eng.Values(), oracleVals(t, w, alg, len(w.Batches))) {
				t.Fatal("post-recovery stream diverged from oracle")
			}
			if err := d2.Close(); err != nil {
				t.Fatal(err)
			}
			if reg.Counter("wal.appends").Value() == 0 || reg.Histogram("wal.append_ns").Count() == 0 {
				t.Fatal("wal metrics not fed")
			}
		})
	}
}

func TestNewDurableRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	w := testWorkload(31, 48, 2, 20)
	alg := algo.BFS{Src: 0}
	dc := DurableConfig{Wal: Options{Dir: dir, Policy: FsyncOff}, SnapshotEvery: 1}
	d, err := NewDurableSelective(graph.FromEdges(w.NumV, w.Initial), alg, engine.Config{}, dc)
	if err != nil {
		t.Fatal(err)
	}
	d.ProcessBatch(context.Background(), w.Batches[0])
	d.Close()
	if _, err := NewDurableSelective(graph.FromEdges(w.NumV, w.Initial), alg, engine.Config{}, dc); err == nil {
		t.Fatal("New over an existing snapshot must fail")
	}
	if !HasSnapshot(dir) {
		t.Fatal("HasSnapshot must see the directory")
	}
}
