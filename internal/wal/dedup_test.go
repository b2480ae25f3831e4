package wal

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// The exactly-once ingest suite: the dedup window's contract (strictly
// increasing clientSeq, one batch outstanding), its persistence inside
// snapshots, its reconstruction from tagged WAL frames during recovery, and
// the degraded-mode ReopenLog episode a disk fault triggers.

func TestDedupTableCheckRecord(t *testing.T) {
	d := NewDedupTable(3)
	if _, dup := d.Check("a", 1); dup {
		t.Fatal("empty table claimed a duplicate")
	}
	d.Record("a", 1, 101)
	d.Record("a", 2, 102)
	if ws, dup := d.Check("a", 2); !dup || ws != 102 {
		t.Fatalf("Check(a,2) = (%d,%v), want (102,true)", ws, dup)
	}
	if ws, dup := d.Check("a", 1); !dup || ws != 101 {
		t.Fatalf("Check(a,1) = (%d,%v), want (101,true)", ws, dup)
	}
	if _, dup := d.Check("a", 3); dup {
		t.Fatal("future clientSeq claimed duplicate")
	}
	if _, dup := d.Check("b", 1); dup {
		t.Fatal("unknown client claimed duplicate")
	}
	// Window trims to 3 entries; aged-out duplicates still detected, walSeq 0.
	d.Record("a", 3, 103)
	d.Record("a", 4, 104)
	if ws, dup := d.Check("a", 1); !dup || ws != 0 {
		t.Fatalf("ancient dup = (%d,%v), want (0,true)", ws, dup)
	}
	// Re-recording at or below the newest is a no-op (recovery idempotence).
	d.Record("a", 4, 999)
	d.Record("a", 2, 998)
	if ws, _ := d.Check("a", 4); ws != 104 {
		t.Fatalf("re-Record overwrote walSeq: got %d, want 104", ws)
	}
	if d.Hits() == 0 {
		t.Fatal("hits counter never advanced")
	}
	if d.Clients() != 1 {
		t.Fatalf("Clients() = %d, want 1", d.Clients())
	}
}

func TestDedupTableEncodeDecode(t *testing.T) {
	d := NewDedupTable(8)
	d.Record("ing-1", 1, 10)
	d.Record("ing-1", 2, 11)
	d.Record("ing-2", 7, 12)
	d.Record("ing-2", 8, 13) // above maxWalSeq below: must be filtered

	got, err := DecodeDedupTable(d.Encode(nil, 12))
	if err != nil {
		t.Fatal(err)
	}
	if ws, dup := got.Check("ing-1", 2); !dup || ws != 11 {
		t.Fatalf("roundtrip Check(ing-1,2) = (%d,%v)", ws, dup)
	}
	if ws, dup := got.Check("ing-2", 7); !dup || ws != 12 {
		t.Fatalf("roundtrip Check(ing-2,7) = (%d,%v)", ws, dup)
	}
	// (ing-2, 8) had walSeq 13 > 12: the snapshot may not assert it.
	if _, dup := got.Check("ing-2", 8); dup {
		t.Fatal("snapshot asserted exactly-once for a frame it might outlive")
	}
	// Deterministic bytes (sorted client ids) for bit-exact snapshots.
	if a, b := string(d.Encode(nil, 12)), string(d.Encode(nil, 12)); a != b {
		t.Fatal("Encode is not deterministic")
	}
	if _, err := DecodeDedupTable([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated table decoded")
	}
}

func TestTaggedBatchCodec(t *testing.T) {
	b := graph.Batch{{Edge: graph.Edge{Src: 1, Dst: 2, W: 3}}, {Edge: graph.Edge{Src: 4, Dst: 5, W: 6}, Del: true}}
	p := EncodeTaggedBatch(nil, 42, "client-7", 9, b)
	seq, got, cid, cseq, err := DecodeTaggedBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || cid != "client-7" || cseq != 9 || len(got) != 2 || got[1].Del != true {
		t.Fatalf("roundtrip mangled: seq=%d cid=%q cseq=%d batch=%v", seq, cid, cseq, got)
	}
	for cut := 1; cut < len(p); cut += 3 {
		if _, _, _, _, err := DecodeTaggedBatch(p[:cut]); err == nil {
			t.Fatalf("truncated tagged batch (%d bytes) decoded", cut)
		}
	}
	if _, _, _, _, err := DecodeTaggedBatch(EncodeTaggedBatch(nil, 1, "", 1, b)); err == nil {
		t.Fatal("empty clientID accepted in a tagged frame")
	}
}

func TestParseDiskFaultSpec(t *testing.T) {
	if inj, err := ParseDiskFaultSpec(""); err != nil || inj != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", inj, err)
	}
	inj, err := ParseDiskFaultSpec("after=2,count=3,err=eio")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := inj.fire("append.write"); err != nil {
			t.Fatalf("op %d failed before the window opened: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := inj.fire("append.sync"); !errors.Is(err, syscall.EIO) {
			t.Fatalf("armed op %d = %v, want EIO", i, err)
		}
	}
	if err := inj.fire("append.write"); err != nil {
		t.Fatalf("window exhausted but still failing: %v", err)
	}
	// Non-append sites never fault: snapshots stay writable while degraded.
	inj.Set(syscall.ENOSPC, 0, -1)
	if err := inj.fire("snapshot.write"); err != nil {
		t.Fatalf("snapshot site faulted: %v", err)
	}
	if err := inj.fire("append.write"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("count<0 should fail until Clear, got %v", err)
	}
	inj.Clear()
	if err := inj.fire("append.write"); err != nil {
		t.Fatalf("Clear did not disarm: %v", err)
	}
	for _, bad := range []string{"after", "after=x", "err=efault", "bogus=1"} {
		if _, err := ParseDiskFaultSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

func TestSnapshotCarriesDedupTable(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Policy: FsyncOff}
	w := testWorkload(17, 64, 1, 10)
	g := graph.FromEdges(w.NumV, w.Initial)
	vals, parent := algo.SolveSelective(g, algo.SSSP{Src: 0})

	dd := NewDedupTable(4)
	dd.Record("c", 1, 3)
	dd.Record("c", 2, 9) // beyond the snapshot seq: filtered
	if err := writeSnapshot(opts, 5, g, KindSnapState, EncodeState(nil, vals, parent), dd); err != nil {
		t.Fatal(err)
	}
	sd, err := ReadSnapshot(filepath.Join(dir, SnapName(5)))
	if err != nil {
		t.Fatal(err)
	}
	if sd.Dedup == nil {
		t.Fatal("snapshot lost the dedup frame")
	}
	if ws, dup := sd.Dedup.Check("c", 1); !dup || ws != 3 {
		t.Fatalf("restored Check(c,1) = (%d,%v)", ws, dup)
	}
	if _, dup := sd.Dedup.Check("c", 2); dup {
		t.Fatal("snapshot asserted an uncovered walSeq")
	}
	// A dedup-less snapshot still reads back (format compatibility).
	if err := WriteSnapshot(opts, 6, g, vals, parent); err != nil {
		t.Fatal(err)
	}
	sd6, err := ReadSnapshot(filepath.Join(dir, SnapName(6)))
	if err != nil {
		t.Fatal(err)
	}
	if sd6.Dedup != nil {
		t.Fatal("dedup-less snapshot grew a table")
	}
}

// servingHarness is the minimal serving-mode rig: a durable engine put in
// serving mode by Group, and a single applier goroutine.
type servingHarness struct {
	d      *Durable
	applyQ chan struct {
		seq uint64
		b   graph.Batch
	}
	done chan error
}

func newServingHarness(t *testing.T, w wload, fam Family, dc DurableConfig) *servingHarness {
	t.Helper()
	d, err := NewDurable(graph.FromEdges(w.nv, w.initial), fam, engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatal(err)
	}
	h := &servingHarness{d: d, done: make(chan error, 1)}
	h.applyQ = make(chan struct {
		seq uint64
		b   graph.Batch
	}, 256)
	d.Group(func(seq uint64, b graph.Batch) {
		h.applyQ <- struct {
			seq uint64
			b   graph.Batch
		}{seq, b}
	}, nil)
	go func() {
		for lg := range h.applyQ {
			if _, err := d.ApplyLogged(context.Background(), lg.seq, lg.b); err != nil {
				h.done <- err
				return
			}
		}
		h.done <- nil
	}()
	return h
}

type wload struct {
	nv      int
	initial []graph.Edge
}

func isInf(x float64) bool { return math.IsInf(x, 1) }

func (h *servingHarness) drain(t *testing.T) {
	t.Helper()
	close(h.applyQ)
	if err := <-h.done; err != nil {
		t.Fatal(err)
	}
}

// TestTaggedAppendRecoveryKeepsExactlyOnce runs over a selective and an
// accumulative family: the dedup window is the wrapper's, so every family
// must persist and restore it.
func TestTaggedAppendRecoveryKeepsExactlyOnce(t *testing.T) {
	w := testWorkload(23, 64, 8, 12)
	for name, fam := range map[string]Family{
		"selective":    SelectiveFamily(algo.SSSP{Src: 0}),
		"accumulative": AccumulativeFamily(algo.NewPageRank(w.NumV)),
	} {
		t.Run(name, func(t *testing.T) { taggedAppendRecovery(t, w, fam) })
	}
}

func taggedAppendRecovery(t *testing.T, w gen.Workload, fam Family) {
	dir := t.TempDir()
	dc := DurableConfig{DedupWindow: 4, SnapshotEvery: 3,
		Wal: Options{Dir: dir, Policy: FsyncAlways}}
	h := newServingHarness(t, wload{w.NumV, w.Initial}, fam, dc)

	// Two clients interleave; client A resends cseq 2 mid-stream.
	seqs := map[string][]uint64{}
	appendOne := func(cid string, cseq uint64, b graph.Batch, wantDup bool) uint64 {
		t.Helper()
		seq, dup, err := h.d.AppendTagged(cid, cseq, b)
		if err != nil {
			t.Fatalf("%s/%d: %v", cid, cseq, err)
		}
		if dup != wantDup {
			t.Fatalf("%s/%d: dup=%v, want %v", cid, cseq, dup, wantDup)
		}
		seqs[cid] = append(seqs[cid], seq)
		return seq
	}
	appendOne("A", 1, w.Batches[0], false)
	appendOne("B", 1, w.Batches[1], false)
	appendOne("A", 2, w.Batches[2], false)
	if re := appendOne("A", 2, w.Batches[2], true); re != seqs["A"][1] {
		t.Fatalf("resend acked seq %d, want original %d", re, seqs["A"][1])
	}
	appendOne("B", 2, w.Batches[3], false)
	appendOne("A", 3, w.Batches[4], false)
	if h.d.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d after 5 unique + 1 resend, want 5", h.d.LastSeq())
	}
	h.drain(t)
	if err := h.d.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery (snapshot at seq 3 + tagged tail) must rebuild the window:
	// resends of pre-crash batches are still duplicates, new seqs are not.
	d2, rs, err := Recover(fam, engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatal(err)
	}
	if v := oracle.CheckReplay("recover", rs.SnapshotSeq, 5, rs.Replayed); v != nil {
		t.Fatal(v)
	}
	d2.Group(func(uint64, graph.Batch) {}, nil)
	// Append order was A1=1, B1=2, A2=3, B2=4, A3=5.
	if seq, dup, err := d2.AppendTagged("A", 3, w.Batches[4]); err != nil || !dup || seq != 5 {
		t.Fatalf("post-recovery resend A/3 = (%d,%v,%v), want (5,true,nil)", seq, dup, err)
	}
	if seq, dup, err := d2.AppendTagged("B", 2, w.Batches[3]); err != nil || !dup || seq != 4 {
		t.Fatalf("post-recovery resend B/2 = (%d,%v,%v), want (4,true,nil)", seq, dup, err)
	}
	if _, dup, err := d2.AppendTagged("B", 3, w.Batches[5]); err != nil || dup {
		t.Fatalf("fresh post-recovery append flagged dup=%v err=%v", dup, err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenLogRecoversFromDiskFault(t *testing.T) {
	w := testWorkload(29, 64, 8, 12)
	inj := NewDiskFaultInjector(syscall.ENOSPC, 0, 0) // count 0: built disarmed
	dc := DurableConfig{DedupWindow: 4,
		Wal: Options{Dir: t.TempDir(), Policy: FsyncAlways, DiskFaults: inj}}
	h := newServingHarness(t, wload{w.NumV, w.Initial}, SelectiveFamily(algo.SSSP{Src: 0}), dc)

	for i := 0; i < 3; i++ {
		if _, _, err := h.d.AppendTagged("C", uint64(i+1), w.Batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Arm a one-op ENOSPC window: the next append fails and poisons the log.
	inj.Set(syscall.ENOSPC, 0, 1)
	if _, _, err := h.d.AppendTagged("C", 4, w.Batches[3]); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("armed append = %v, want ENOSPC", err)
	}
	if _, err := h.d.Append(w.Batches[3]); err == nil {
		t.Fatal("poisoned log accepted an append")
	}
	if inj.Fired() == 0 {
		t.Fatal("injector never fired")
	}

	// Probe like the server does: ReopenLog may need retries while the
	// applier is still draining the batches the dead generation enqueued.
	var rerr error
	for i := 0; i < 200; i++ {
		if rerr = h.d.ReopenLog(); rerr == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if rerr != nil {
		t.Fatalf("ReopenLog never succeeded: %v", rerr)
	}

	// The failed batch was never acked: the client resends the SAME cseq
	// and it must append fresh (not dup — the torn frame died with the old
	// log generation).
	seq, dup, err := h.d.AppendTagged("C", 4, w.Batches[3])
	if err != nil {
		t.Fatalf("post-reopen resend: %v", err)
	}
	if dup {
		t.Fatal("resend of a never-logged batch claimed duplicate")
	}
	if seq != 4 {
		t.Fatalf("post-reopen seq = %d, want 4", seq)
	}
	h.drain(t)
	if err := h.d.Close(); err != nil {
		t.Fatal(err)
	}

	// The directory recovers to exactly the served state.
	d2, _, err := RecoverSelective(algo.SSSP{Src: 0}, engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Seq() != 4 {
		t.Fatalf("recovered seq = %d, want 4", d2.Seq())
	}
	ref := graph.FromEdges(w.NumV, w.Initial)
	for i := 0; i < 4; i++ {
		ref.ApplyBatch(w.Batches[i])
	}
	want, _ := algo.SolveSelective(ref, algo.SSSP{Src: 0})
	got := d2.Eng.Values()
	for v := range want {
		if got[v] != want[v] && !(isInf(got[v]) && isInf(want[v])) {
			t.Fatalf("vertex %d = %v, want %v", v, got[v], want[v])
		}
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}
