package serve

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/wal"
)

// The in-process serving suite: 8 concurrent ingest sessions and 8 readers
// race against one server under FsyncAlways and -race, then the drained
// directory must recover to exactly the state that was served.

func valsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsInf(a[i], 1) && math.IsInf(b[i], 1)) {
			return false
		}
	}
	return true
}

// testStream builds an initial graph plus insert-only batches partitioned
// across sessions. Insert-only with disjoint edges makes the final graph —
// and therefore the selective fixpoint — independent of how the sessions'
// appends interleave in the log.
func testStream(seed uint64, sessions, perSession, batchSize int) (numV int, initial []graph.Edge, perSess [][]graph.Batch) {
	cfg := gen.TestDataset(seed)
	edges := gen.Generate(cfg)
	need := sessions * perSession * batchSize
	if len(edges) < need+need/2 {
		panic("serve: test dataset too small")
	}
	initial = edges[:len(edges)-need]
	stream := edges[len(edges)-need:]
	perSess = make([][]graph.Batch, sessions)
	for s := 0; s < sessions; s++ {
		for i := 0; i < perSession; i++ {
			var b graph.Batch
			for j := 0; j < batchSize; j++ {
				b = append(b, graph.Update{Edge: stream[(s*perSession+i)*batchSize+j]})
			}
			perSess[s] = append(perSess[s], b)
		}
	}
	return cfg.NumV, initial, perSess
}

func newTestServer(t *testing.T, cfg Config, alg algo.Selective, numV int, initial []graph.Edge, reg *metrics.Registry) (*Server, *wal.Durable, wal.DurableConfig) {
	t.Helper()
	dc := wal.DurableConfig{Wal: wal.Options{Dir: t.TempDir(), Policy: wal.FsyncAlways, Metrics: reg}}
	d, err := wal.NewDurableSelective(graph.FromEdges(numV, initial), alg, engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "127.0.0.1:0"
	cfg.Durable = d
	cfg.Alg = alg
	cfg.Metrics = reg
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, d, dc
}

func TestServeConcurrentIngestAndReaders(t *testing.T) {
	const (
		sessions   = 8
		readers    = 8
		perSession = 6
		batchSize  = 40
	)
	alg := algo.SSSP{Src: 0}
	numV, initial, perSess := testStream(31, sessions, perSession, batchSize)
	reg := metrics.NewRegistry()
	srv, d, dc := newTestServer(t, Config{}, alg, numV, initial, reg)
	addr := srv.Addr()
	total := uint64(sessions * perSession)

	ingestDone := make(chan struct{})
	var ingWG, readWG sync.WaitGroup
	fail := make(chan error, sessions+readers+1)

	// 8 concurrent ingest sessions, each submitting its own batches in order.
	for s := 0; s < sessions; s++ {
		ingWG.Add(1)
		go func(s int) {
			defer ingWG.Done()
			c, err := DialOpts(addr, ClientOptions{Role: RoleIngest, DialTimeout: 5 * time.Second})
			if err != nil {
				fail <- err
				return
			}
			defer c.Close()
			var last uint64
			for i, b := range perSess[s] {
				seq, err := c.IngestRetry(b)
				if err != nil {
					fail <- err
					return
				}
				if seq <= last {
					t.Errorf("session %d: batch %d acked seq %d after %d", s, i, seq, last)
				}
				last = seq
			}
		}(s)
	}

	// 8 readers hammer the snapshot API while ingest is in flight. Each
	// session's observed snapshot sequence must be monotone, and Stat's
	// logged watermark must never trail its applied watermark.
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			c, err := DialOpts(addr, ClientOptions{Role: RoleQuery, DialTimeout: 5 * time.Second})
			if err != nil {
				fail <- err
				return
			}
			defer c.Close()
			rnd := rng.New(uint64(100 + r))
			var lastSeq uint64
			for {
				select {
				case <-ingestDone:
					return
				default:
				}
				switch rnd.Intn(3) {
				case 0:
					v := graph.VertexID(rnd.Intn(numV))
					_, _, seq, err := c.Get(v)
					if err != nil {
						fail <- err
						return
					}
					if seq < lastSeq {
						t.Errorf("reader %d: snapshot went backwards %d -> %d", r, lastSeq, seq)
					}
					lastSeq = seq
				case 1:
					recs, _, err := c.TopK(5)
					if err != nil {
						fail <- err
						return
					}
					if len(recs) > 5 {
						t.Errorf("reader %d: top-5 returned %d records", r, len(recs))
					}
				case 2:
					st, err := c.Stat()
					if err != nil {
						fail <- err
						return
					}
					if st.LoggedSeq < st.AppliedSeq {
						t.Errorf("reader %d: logged %d < applied %d", r, st.LoggedSeq, st.AppliedSeq)
					}
				}
			}
		}(r)
	}

	// One subscriber collects the delta stream until the server's bye.
	subDone := make(chan struct{})
	var deltaSeqs []uint64
	go func() {
		defer close(subDone)
		c, err := DialOpts(addr, ClientOptions{Role: RoleQuery, DialTimeout: 5 * time.Second})
		if err != nil {
			fail <- err
			return
		}
		defer c.Close()
		if err := c.Subscribe(); err != nil {
			fail <- err
			return
		}
		for {
			dlt, ok, err := c.Next(10 * time.Second)
			if err != nil || !ok {
				return // bye (shutdown) or dropped subscription
			}
			if n := len(deltaSeqs); n > 0 && dlt.Seq <= deltaSeqs[n-1] {
				t.Errorf("delta seq %d after %d", dlt.Seq, deltaSeqs[n-1])
			}
			deltaSeqs = append(deltaSeqs, dlt.Seq)
		}
	}()

	ingWG.Wait()
	close(ingestDone)
	readWG.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-subDone
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}

	if got := d.Seq(); got != total {
		t.Fatalf("applied through seq %d, want %d (every acked batch applied)", got, total)
	}
	if got := srv.Snapshot().Seq; got != total {
		t.Fatalf("published snapshot at seq %d, want %d", got, total)
	}
	if len(deltaSeqs) == 0 {
		t.Fatal("subscriber saw no deltas")
	}

	// Every append rides in exactly one commit group.
	if sum := reg.Histogram("serve.group_commit_size").Sum(); sum != int64(total) {
		t.Fatalf("group_commit_size sum %d, want %d", sum, total)
	}

	// Oracle: the final graph is interleaving-independent (disjoint inserts),
	// so the served state must equal a from-scratch solve.
	g := graph.FromEdges(numV, initial)
	for _, sb := range perSess {
		for _, b := range sb {
			g.ApplyBatch(b)
		}
	}
	vals, _ := algo.SolveSelective(g, alg)
	if !valsEqual(d.Eng.Values(), vals) {
		t.Fatal("served state differs from oracle")
	}

	// The drained directory recovers to the exact served state.
	rec, rs, err := wal.RecoverSelective(alg, engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatalf("recovery after drain: %v", err)
	}
	defer rec.Close()
	if rs.LastSeq != total || rs.Replayed != int(rs.LastSeq-rs.SnapshotSeq) {
		t.Fatalf("recovery stats %+v, want LastSeq %d with exactly-once replay", rs, total)
	}
	if !valsEqual(rec.Eng.Values(), d.Eng.Values()) {
		t.Fatal("recovered state differs from served state")
	}
}

// mirrorEdges doubles the initial edge list so local (undirected)
// algorithms start from a symmetric graph, matching what graphfly serve does.
func mirrorEdges(initial []graph.Edge) []graph.Edge {
	both := make([]graph.Edge, 0, 2*len(initial))
	for _, e := range initial {
		both = append(both, e, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
	}
	return both
}

func newLocalTestServer(t *testing.T, cfg Config, alg algo.Local, numV int, initial []graph.Edge) (*Server, *wal.Durable, wal.DurableConfig) {
	t.Helper()
	dc := wal.DurableConfig{Wal: wal.Options{Dir: t.TempDir(), Policy: wal.FsyncAlways}, SnapshotEvery: 4}
	d, err := wal.NewDurable(graph.FromEdges(numV, mirrorEdges(initial)), wal.LocalFamily(alg), engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "127.0.0.1:0"
	cfg.Durable = d
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, d, dc
}

// localOracle replays the stream onto a from-scratch undirected graph the
// same way the serving engine sees it (symmetrized batches) and solves it
// statically.
func localOracle(alg algo.Local, numV int, initial []graph.Edge, batches []graph.Batch) []float64 {
	ref := graph.FromEdges(numV, mirrorEdges(initial))
	for _, b := range batches {
		ref.ApplyBatch(engine.Symmetrize(b))
	}
	return alg.Solve(ref)
}

// awaitApplied polls Stat until the applier has folded every acked batch
// into the published snapshot, checking the logged/applied watermark
// invariant along the way.
func awaitApplied(t *testing.T, c *Client, total uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if st.LoggedSeq < st.AppliedSeq {
			t.Errorf("logged %d < applied %d", st.LoggedSeq, st.AppliedSeq)
		}
		if st.AppliedSeq == total {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("applier stuck at seq %d, want %d", st.AppliedSeq, total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeLocalTriangleTopK serves incremental triangle counting through
// the local backend: after a streamed ingest, top-k replies from the
// published snapshot must rank vertices by triangle count and agree
// bit-exactly with a from-scratch count, and the drained directory must
// recover to the served state.
func TestServeLocalTriangleTopK(t *testing.T) {
	alg := algo.TriangleCount{}
	numV, initial, perSess := testStream(33, 1, 4, 30)
	srv, _, dc := newLocalTestServer(t, Config{}, alg, numV, initial)
	addr := srv.Addr()
	total := uint64(len(perSess[0]))

	ing, err := DialOpts(addr, ClientOptions{Role: RoleIngest, DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got := ing.Welcome.AlgName; got != "triangle" {
		t.Fatalf("welcome algorithm %q, want triangle", got)
	}
	for i, b := range perSess[0] {
		seq, err := ing.IngestRetry(b)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("batch %d acked seq %d", i, seq)
		}
	}
	ing.Close()

	qry, err := DialOpts(addr, ClientOptions{Role: RoleQuery, DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	awaitApplied(t, qry, total)
	want := localOracle(alg, numV, initial, perSess[0])

	// Top-k triangle counts from the published snapshot: ranked by Better
	// (descending count) and bit-exact against the oracle.
	recs, seq, err := qry.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	if seq != total {
		t.Fatalf("top-k answered at seq %d, want %d", seq, total)
	}
	if len(recs) != 5 {
		t.Fatalf("top-5 returned %d records", len(recs))
	}
	best := want[0]
	for _, w := range want {
		if w > best {
			best = w
		}
	}
	if recs[0].Val != best {
		t.Fatalf("top-1 count %g, want the global max %g", recs[0].Val, best)
	}
	for i, r := range recs {
		if r.Val != want[r.V] {
			t.Errorf("top-k[%d]: vertex %d count %g, oracle %g", i, r.V, r.Val, want[r.V])
		}
		if i > 0 && alg.Better(r.Val, recs[i-1].Val) {
			t.Errorf("top-k out of order at %d: %g after %g", i, r.Val, recs[i-1].Val)
		}
	}

	// Point reads come from the same snapshot; local snapshots have no
	// key-edge parents.
	for v := 0; v < numV; v += 17 {
		val, parent, gseq, err := qry.Get(graph.VertexID(v))
		if err != nil {
			t.Fatal(err)
		}
		if gseq != total || val != want[v] || parent != -1 {
			t.Errorf("get %d: (val %g, parent %d, seq %d), want (%g, -1, %d)", v, val, parent, gseq, want[v], total)
		}
	}
	qry.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	rec, rs, err := wal.Recover(wal.LocalFamily(alg), engine.Config{Workers: 2}, dc)
	if err != nil {
		t.Fatalf("recovery after drain: %v", err)
	}
	defer rec.Close()
	if rs.LastSeq != total || rs.Replayed != int(rs.LastSeq-rs.SnapshotSeq) {
		t.Fatalf("recovery stats %+v, want LastSeq %d with exactly-once replay", rs, total)
	}
	if !valsEqual(rec.Eng.Values(), want) {
		t.Fatal("recovered triangle counts differ from oracle")
	}
}

// TestServeLocalKCoreStat serves k-core maintenance through the local
// backend: stat probes stay consistent while the stream applies, and a
// full-width top-k (the consistent point-in-time dump) must equal the
// from-scratch coreness of the final graph.
func TestServeLocalKCoreStat(t *testing.T) {
	alg := algo.KCore{}
	numV, initial, perSess := testStream(34, 1, 4, 30)
	srv, d, _ := newLocalTestServer(t, Config{}, alg, numV, initial)
	addr := srv.Addr()
	total := uint64(len(perSess[0]))

	ing, err := DialOpts(addr, ClientOptions{Role: RoleIngest, DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got := ing.Welcome.AlgName; got != "kCore" {
		t.Fatalf("welcome algorithm %q, want kCore", got)
	}
	qry, err := DialOpts(addr, ClientOptions{Role: RoleQuery, DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave stat probes with ingest: the logged watermark must never
	// trail the applied one mid-stream.
	for i, b := range perSess[0] {
		if _, err := ing.IngestRetry(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		st, err := qry.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if st.LoggedSeq < st.AppliedSeq {
			t.Errorf("after batch %d: logged %d < applied %d", i, st.LoggedSeq, st.AppliedSeq)
		}
		if st.Sessions != 2 {
			t.Errorf("after batch %d: stat reports %d sessions, want 2", i, st.Sessions)
		}
	}
	ing.Close()
	awaitApplied(t, qry, total)

	// The full-width top-k is a consistent coreness dump of every vertex.
	want := localOracle(alg, numV, initial, perSess[0])
	recs, seq, err := qry.TopK(numV)
	if err != nil {
		t.Fatal(err)
	}
	if seq != total || len(recs) != numV {
		t.Fatalf("dump: %d records at seq %d, want %d at %d", len(recs), seq, numV, total)
	}
	got := make([]float64, numV)
	for _, r := range recs {
		got[r.V] = r.Val
	}
	if !valsEqual(got, want) {
		t.Fatal("served coreness differs from from-scratch k-core")
	}
	if !valsEqual(d.Eng.Values(), want) {
		t.Fatal("engine coreness differs from from-scratch k-core")
	}
	qry.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestServeTypedRejects(t *testing.T) {
	alg := algo.SSSP{Src: 0}
	numV, initial, perSess := testStream(32, 1, 1, 10)
	srv, _, _ := newTestServer(t, Config{MaxSessions: 2}, alg, numV, initial, metrics.NewRegistry())
	addr := srv.Addr()

	ing, err := DialOpts(addr, ClientOptions{Role: RoleIngest, DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	qry, err := DialOpts(addr, ClientOptions{Role: RoleQuery, DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	// Session cap: the third concurrent session gets a retryable overload.
	if _, err := DialOpts(addr, ClientOptions{Role: RoleQuery, DialTimeout: 5 * time.Second}); err == nil {
		t.Fatal("third session admitted past MaxSessions=2")
	} else if re, ok := err.(*RejectError); !ok || re.Code != RejectOverloaded || !re.Retryable() {
		t.Fatalf("session-cap reject: got %v, want retryable RejectOverloaded", err)
	}

	// A malformed batch is refused before the WAL, and the session survives.
	bad := graph.Batch{{Edge: graph.Edge{Src: graph.VertexID(numV + 7), Dst: 0, W: 1}}}
	if _, err := ing.Ingest(bad); err == nil {
		t.Fatal("out-of-range batch accepted")
	} else if re, ok := err.(*RejectError); !ok || re.Code != RejectBadRequest || re.Retryable() {
		t.Fatalf("bad-batch reject: got %v, want non-retryable RejectBadRequest", err)
	}
	if seq, err := ing.Ingest(perSess[0][0]); err != nil || seq != 1 {
		t.Fatalf("valid ingest after bad-batch reject: seq %d, %v", seq, err)
	}

	// Reads validate their arguments the same way.
	if _, _, _, err := qry.Get(graph.VertexID(numV + 7)); err == nil {
		t.Fatal("out-of-range get answered")
	} else if re, ok := err.(*RejectError); !ok || re.Code != RejectBadRequest {
		t.Fatalf("bad-get reject: got %v", err)
	}
	if _, _, err := qry.TopK(0); err == nil {
		t.Fatal("top-0 answered")
	}

	// Ingest on a query session is a role violation that ends the session.
	if _, err := qry.Ingest(perSess[0][0]); err == nil {
		t.Fatal("ingest accepted on a query session")
	} else if re, ok := err.(*RejectError); !ok || re.Code != RejectBadRequest {
		t.Fatalf("role-violation reject: got %v", err)
	}
	qry.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := DialOpts(addr, ClientOptions{Role: RoleQuery, DialTimeout: time.Second}); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}
