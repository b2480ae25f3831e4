package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
)

// referenceSnapshot frames a snapshot the way the format is specified:
// every frame whole in memory, the edges fully sorted by (src, dst).
func referenceSnapshot(seq uint64, g *graph.Streaming, kind byte, state, dedup []byte) []byte {
	var edges []graph.Edge
	for v := 0; v < g.NumVertices(); v++ {
		for _, h := range g.Out(graph.VertexID(v)) {
			edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: h.To, W: h.W})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
	var hdr, ed Enc
	hdr.U64(seq)
	hdr.U32(uint32(g.NumVertices()))
	ed.Edges(edges)
	buf := AppendFrame(nil, KindSnapHeader, hdr.B)
	buf = AppendFrame(buf, KindSnapEdges, ed.B)
	buf = AppendFrame(buf, kind, state)
	if dedup != nil {
		buf = AppendFrame(buf, KindSnapDedup, dedup)
	}
	return AppendFrame(buf, KindSnapFooter, hdr.B[0:8])
}

// churnGraph builds a graph whose edge frame spans several frame buffers,
// with hub lists long enough for the radix sort and swap-deleted lists.
func churnGraph(seed uint64, n, m int) *graph.Streaming {
	r := rng.New(seed)
	g := graph.NewStreaming(n)
	for g.NumEdges() < m {
		src := graph.VertexID(r.Intn(n))
		if r.Intn(4) == 0 {
			src = graph.VertexID(r.Intn(8))
		}
		if dst := graph.VertexID(r.Intn(n)); dst != src {
			g.AddEdge(graph.Edge{Src: src, Dst: dst, W: r.Weight(8)})
		}
	}
	for _, e := range g.Edges() {
		if r.Intn(5) == 0 {
			g.DeleteEdge(e.Src, e.Dst)
		}
	}
	return g
}

// TestSnapshotStreamMatchesFrames: the streaming writer's file equals the
// whole-frame reference byte for byte when the edge frame is several
// buffers long (its header patched with WriteAt) and when the state frame
// is too, with and without a dedup frame.
func TestSnapshotStreamMatchesFrames(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Policy: FsyncOff}
	g := churnGraph(5, 1<<17, 60000)
	if edgeLen*g.NumEdges() < 2*frameBufLen {
		t.Fatalf("edge frame of %d edges fits in the buffer — test lost its teeth", g.NumEdges())
	}
	vals, parent := algo.SolveSelective(g, algo.SSSP{Src: 0})
	state := EncodeState(nil, vals, parent)
	dt := NewDedupTable(4)
	dt.Record("c", 1, 2)
	for seq, dedup := range map[uint64]*DedupTable{3: nil, 4: dt} {
		if err := writeSnapshot(opts, seq, g, KindSnapState, state, dedup); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, SnapName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceSnapshot(seq, g, KindSnapState, state, dedupFrame(dedup, seq)); !bytes.Equal(got, want) {
			t.Fatalf("seq %d: streamed snapshot (%d B) differs from the reference (%d B)", seq, len(got), len(want))
		}
	}
}

// TestFrozenSnapshotUnderChurn is the frozen-view gate at the encoder: a
// goroutine writes a snapshot of a frozen view while ApplyBatchParallel at
// W = 2/4/8 adds and deletes (hub lists included), and the file must equal
// the snapshot of a deep copy taken at Freeze. Run under -race it also
// proves the writer never reads an element the applier writes.
func TestFrozenSnapshotUnderChurn(t *testing.T) {
	const n = 1 << 12
	for _, workers := range []int{2, 4, 8} {
		dir := t.TempDir()
		opts := Options{Dir: dir, Policy: FsyncOff}
		g := churnGraph(uint64(workers), n, 40000)
		r := rng.New(uint64(workers) * 31)
		state := EncodeState(nil, make([]float64, n), nil)

		copyAt := g.Clone()
		view := g.Freeze()
		done := make(chan error)
		go func() {
			done <- writeSnapshotView(opts, 1, view, KindSnapState, state, nil)
			view.Release()
		}()
		edges := g.Edges()
		for k := 0; k < 4; k++ {
			b := make(graph.Batch, 0, 3000)
			for len(b) < cap(b) {
				if e := edges[r.Intn(len(edges))]; r.Intn(2) == 0 {
					b = append(b, graph.Update{Edge: e, Del: true})
				} else if src, dst := graph.VertexID(r.Intn(8)), graph.VertexID(r.Intn(n)); src != dst {
					b = append(b, graph.Update{Edge: graph.Edge{Src: src, Dst: dst, W: 1}})
				}
			}
			g.ApplyBatchParallel(b, workers)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, SnapName(1)))
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceSnapshot(1, copyAt, KindSnapState, state, nil); !bytes.Equal(got, want) {
			t.Fatalf("W=%d: the frozen view's snapshot differs from the deep copy's at Freeze", workers)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStaleSnapshotTempsRemoved: a writer that dies between its temp-file
// write and the rename leaves snap-*.snap.tmp behind; Recover removes it,
// and so does NewDurable over a directory holding one.
func TestStaleSnapshotTempsRemoved(t *testing.T) {
	w := testWorkload(61, 64, 6, 30)
	alg := algo.SSSP{Src: 0}
	tmps := func(dir string) []string {
		m, _ := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix))
		return m
	}
	for _, site := range []string{"snapshot.sync", "snapshot.rename"} {
		dir := t.TempDir()
		// Die at the site in the second background snapshot (the first is
		// the creation-time one).
		seen := 0
		dc := DurableConfig{Wal: Options{Dir: dir, Policy: FsyncAlways, hook: func(s string) error {
			if s == site {
				if seen++; seen == 2 {
					return &crashError{Site: s, Tear: -1}
				}
			}
			return nil
		}}, SnapshotEvery: 2}
		acked, crashed := runUntilCrash(t, dir, w, alg, dc)
		if !crashed {
			t.Fatalf("%s: crash did not fire", site)
		}
		if len(tmps(dir)) != 1 {
			t.Fatalf("%s: the dead writer left %v, want one temp file", site, tmps(dir))
		}
		verifyRecovery(t, w, alg, dc, acked, "stale-tmp/"+site)
		if left := tmps(dir); len(left) != 0 {
			t.Fatalf("%s: recovery left %v", site, left)
		}
	}

	dir := t.TempDir()
	stale := filepath.Join(dir, SnapName(7)+tmpSuffix)
	if err := os.WriteFile(stale, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := NewDurableSelective(graph.FromEdges(w.NumV, w.Initial), alg, engine.Config{Workers: 1},
		DurableConfig{Wal: Options{Dir: dir, Policy: FsyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if left := tmps(dir); len(left) != 0 {
		t.Fatalf("NewDurable left %v", left)
	}
}

// TestSnapshotFailureRemovesTemp: a real I/O failure (here the rename,
// over a non-empty directory squatting on the snapshot's name) removes the
// writer's own temp file.
func TestSnapshotFailureRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	squat := filepath.Join(dir, SnapName(3))
	if err := os.MkdirAll(filepath.Join(squat, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(Options{Dir: dir, Policy: FsyncOff}, 3, goldenGraph(), goldenVals, goldenParent); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix)); len(m) != 0 {
		t.Fatalf("failed write left %v", m)
	}
}
