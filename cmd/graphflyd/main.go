// Command graphflyd is the long-lived serving daemon over a durable engine
// (selective or local): many concurrent ingest sessions append through the
// WAL group-commit layer (one shared fsync per group under -fsync always),
// and readers get consistent point-in-time answers from immutable
// batch-boundary snapshots. The same binary doubles as the client.
//
// Server:
//
//	graphflyd -waldir /tmp/d -addr 127.0.0.1:8464 -algo SSSP -dataset LJ -fsync always
//
// Clients (second terminal):
//
//	graphflyd -client ingest -addr 127.0.0.1:8464 -numberOfUpdateBatches 8 -nEdges 2000
//	graphflyd -client get    -addr 127.0.0.1:8464 -v 17
//	graphflyd -client topk   -addr 127.0.0.1:8464 -k 10
//	graphflyd -client watch  -addr 127.0.0.1:8464 -deltas 4
//	graphflyd -client stat   -addr 127.0.0.1:8464
//
// SIGTERM drains: admitted batches finish applying, sessions get a bye, and
// a final snapshot makes the next start recover instantly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/wal"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "graphflyd: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	client := flag.String("client", "", "run as a client: ingest | get | topk | stat | watch | dump")
	addr := flag.String("addr", "127.0.0.1:8464", "server listen address (server) or target (client)")
	algoName := flag.String("algo", "SSSP", "algorithm: BFS | SSSP | SSWP | CC (selective) or triangle | kcore (local)")
	source := flag.Uint("source", 1, "source vertex for BFS/SSSP/SSWP")
	datasetCode := flag.String("dataset", "LJ", "dataset preset: FT TT TW UK LJ")
	nEdges := flag.Int("nEdges", 2000, "updates per generated batch (client ingest) and dataset batch sizing")
	batches := flag.Int("numberOfUpdateBatches", 8, "batches a client ingest session submits")
	deletions := flag.Float64("deletions", 0.1, "fraction of each generated batch that is deletions")
	seed := flag.Uint64("seed", 42, "stream sampling seed")
	firstBatch := flag.Int("first-batch", 0, "client ingest: skip the workload's first N batches (resume point)")
	workers := flag.Int("workers", 0, "engine worker goroutines (0 = GOMAXPROCS)")
	flowCap := flag.Int("flowCap", 0, "dependency-flow size cap (0 = default)")
	sched := flag.String("sched", "", "unit scheduler: worksteal (default) or global")
	walDir := flag.String("waldir", "", "directory for WAL segments and snapshots (required, server)")
	fsync := flag.String("fsync", "always", "WAL fsync policy: interval | always | off")
	snapEvery := flag.Int("snapshot-every", 16, "batches between snapshot checkpoints (0 = only at start/shutdown)")
	dedupWindow := flag.Int("dedup-window", 64, "per-client idempotency window: resends of the last N acked batches per client identity dedup instead of re-applying (0 = default)")
	diskFault := flag.String("diskfault", "", "inject WAL disk faults (testing), e.g. 'after=3,count=1,err=enospc' — the daemon degrades to read-only and recovers when appends succeed")
	groupWindow := flag.Duration("group-window", 500*time.Microsecond,
		"fsync=always commit window: how long a sync leader yields for concurrent appends to share its fsync (0 = off; lone writers never wait)")
	maxSessions := flag.Int("max-sessions", 64, "concurrent session cap")
	maxPending := flag.Int("max-pending", 64, "admission window: logged-but-unapplied batches")
	showMetrics := flag.Bool("metrics", false, "print serve/wal counters and histograms at exit (server)")
	vtx := flag.Uint("v", 1, "vertex for -client get")
	topk := flag.Int("k", 10, "k for -client topk")
	deltas := flag.Int("deltas", 1, "delta pushes to print before exiting in -client watch")
	outFile := flag.String("o", "-", "output file for -client dump ('-' = stdout)")
	timeout := flag.Duration("timeout", 10*time.Second, "client dial/reply timeout")
	clientID := flag.String("client-id", "", "stable client identity for exactly-once resume: transport errors redial and resend the in-flight batch under its original sequence; the server dedups against its -dedup-window")
	flag.Parse()

	if *client != "" {
		runClient(*client, *addr, clientOpts{
			algo: *algoName, dataset: *datasetCode, nEdges: *nEdges,
			batches: *batches, deletions: *deletions, seed: *seed,
			firstBatch: *firstBatch, v: graph.VertexID(*vtx), k: *topk,
			deltas: *deltas, out: *outFile, timeout: *timeout, clientID: *clientID,
		})
		return
	}
	runServer(*addr, *algoName, graph.VertexID(*source), *datasetCode, *nEdges, *deletions, *seed,
		*workers, *flowCap, *sched, *walDir, *fsync, *snapEvery, *dedupWindow, *diskFault,
		*groupWindow, *maxSessions, *maxPending, *showMetrics)
}

func parseAlg(name string, src graph.VertexID) (algo.Selective, bool) {
	switch name {
	case "BFS":
		return algo.BFS{Src: src}, true
	case "SSSP":
		return algo.SSSP{Src: src}, true
	case "SSWP":
		return algo.SSWP{Src: src}, true
	case "CC":
		return algo.CC{}, true
	}
	return nil, false
}

func parseLocalAlg(name string) (algo.Local, bool) {
	switch name {
	case "triangle", "TC":
		return algo.TriangleCount{}, true
	case "kcore", "kCore", "KCore":
		return algo.KCore{}, true
	}
	return nil, false
}

// mirroredInitial doubles every initial edge for symmetric algorithms so
// the starting graph is undirected; the engines symmetrize streamed
// batches themselves.
func mirroredInitial(initial []graph.Edge) []graph.Edge {
	both := make([]graph.Edge, 0, 2*len(initial))
	for _, e := range initial {
		both = append(both, e, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
	}
	return both
}

// buildWorkload regenerates the deterministic dataset workload. Server and
// ingest clients share it: the server takes the initial half, clients take
// the batch stream, and gen's prefix stability makes any batch count a
// prefix of any longer run with the same seed.
func buildWorkload(dataset string, batchSize, numBatches int, deletions float64, seed uint64) gen.Workload {
	cfg := gen.Dataset(dataset)
	edges := gen.Generate(cfg)
	if batchSize > len(edges)/2 {
		batchSize = len(edges) / 2
	}
	return gen.BuildWorkload(cfg.NumV, edges, gen.StreamConfig{
		InitialFraction: 0.5,
		DeleteRatio:     deletions,
		BatchSize:       batchSize,
		NumBatches:      numBatches,
		Seed:            seed,
	})
}

func runServer(addr, algoName string, src graph.VertexID, dataset string, nEdges int, deletions float64, seed uint64,
	workers, flowCap int, sched, walDir, fsync string, snapEvery, dedupWindow int, diskFault string,
	groupWindow time.Duration, maxSessions, maxPending int, showMetrics bool) {
	alg, selOK := parseAlg(algoName, src)
	lalg, locOK := parseLocalAlg(algoName)
	if !selOK && !locOK {
		fatalf("unknown algorithm %q (serving supports BFS, SSSP, SSWP, CC, triangle, kcore)", algoName)
	}
	policy, ok := wal.ParseFsync(fsync)
	if !ok {
		fatalf("unknown fsync policy %q (want interval, always, or off)", fsync)
	}
	if walDir == "" {
		fatalf("-waldir is required (the WAL is what makes acknowledged batches durable)")
	}
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	schedKind, ok := engine.ParseScheduler(sched)
	if !ok {
		fatalf("unknown scheduler %q", sched)
	}
	var faults *wal.DiskFaultInjector
	if diskFault != "" {
		inj, err := wal.ParseDiskFaultSpec(diskFault)
		if err != nil {
			fatalf("%v", err)
		}
		faults = inj
	}
	reg := metrics.NewRegistry()
	eCfg := engine.Config{Workers: workers, FlowCap: flowCap, Scheduler: schedKind}
	dc := wal.DurableConfig{
		Wal:           wal.Options{Dir: walDir, Policy: policy, Metrics: reg, GroupWindow: groupWindow, DiskFaults: faults},
		SnapshotEvery: snapEvery,
		DedupWindow:   dedupWindow,
	}

	fam, symmetric := wal.LocalFamily(lalg), true
	if selOK {
		fam, symmetric = wal.SelectiveFamily(alg), alg.Symmetric()
	}
	var durable *wal.Durable
	if wal.HasSnapshot(walDir) {
		var rs wal.RecoveryStats
		var err error
		if durable, rs, err = wal.Recover(fam, eCfg, dc); err != nil {
			fatalf("recovery from %s failed: %v", walDir, err)
		}
		fmt.Printf("recovered %s: snapshot seq %d, replayed %d batches to seq %d in %v\n",
			walDir, rs.SnapshotSeq, rs.Replayed, rs.LastSeq, rs.Duration)
	} else {
		w := buildWorkload(dataset, nEdges, 0, deletions, seed)
		initial := w.Initial
		if symmetric {
			initial = mirroredInitial(initial)
		}
		var err error
		if durable, err = wal.NewDurable(graph.FromEdges(w.NumV, initial), fam, eCfg, dc); err != nil {
			fatalf("%v", err)
		}
	}

	srv, err := serve.New(serve.Config{
		Addr:        addr,
		Durable:     durable,
		MaxSessions: maxSessions,
		MaxPending:  maxPending,
		Metrics:     reg,
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("graphflyd listening on %s (%s on %s, %d vertices, seq %d, fsync=%s)\n",
		srv.Addr(), algoName, dataset, srv.Snapshot().NumVertices(), durable.Seq(), policy)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "graphflyd: signal received — draining")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fatalf("shutdown: %v", err)
	}
	fmt.Printf("graphflyd drained: durable through seq %d\n", durable.Seq())
	if showMetrics {
		fmt.Print(reg.Snapshot().String())
	}
}

type clientOpts struct {
	algo, dataset string
	nEdges        int
	batches       int
	deletions     float64
	seed          uint64
	firstBatch    int
	v             graph.VertexID
	k             int
	deltas        int
	out           string
	timeout       time.Duration
	clientID      string
}

func runClient(op, addr string, o clientOpts) {
	role := serve.RoleQuery
	if op == "ingest" {
		role = serve.RoleIngest
	}
	// With -client-id, the session survives connection loss: transport errors
	// redial and resend the in-flight batch under its original idempotency
	// key, and the server's dedup window turns a resend of an already-logged
	// batch into an ack instead of a second apply.
	c, err := serve.DialOpts(addr, serve.ClientOptions{
		Role:        role,
		ClientID:    o.clientID,
		DialTimeout: o.timeout,
		OpTimeout:   o.timeout,
		Seed:        o.seed,
	})
	if err != nil {
		fatalf("%v", err)
	}
	defer c.Close()
	switch op {
	case "ingest":
		w := buildWorkload(o.dataset, o.nEdges, o.firstBatch+o.batches, o.deletions, o.seed)
		if o.firstBatch > len(w.Batches) {
			fatalf("-first-batch %d beyond the %d-batch workload", o.firstBatch, len(w.Batches))
		}
		for i, b := range w.Batches[o.firstBatch:] {
			seq, err := c.IngestRetry(b)
			if err != nil {
				fatalf("batch %d: %v", o.firstBatch+i, err)
			}
			fmt.Printf("ingested batch %d: seq=%d edges=%d\n", o.firstBatch+i, seq, len(b))
		}
	case "get":
		val, parent, seq, err := c.Get(o.v)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("vertex %d: value %g parent %d (at seq %d)\n", o.v, val, parent, seq)
	case "topk":
		recs, seq, err := c.TopK(o.k)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("top %d at seq %d:\n", len(recs), seq)
		for _, r := range recs {
			fmt.Printf("  %d %g\n", r.V, r.Val)
		}
	case "stat":
		st, err := c.Stat()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("applied seq %d, logged seq %d, %d sessions\n", st.AppliedSeq, st.LoggedSeq, st.Sessions)
	case "watch":
		if err := c.Subscribe(); err != nil {
			fatalf("%v", err)
		}
		for i := 0; i < o.deltas; i++ {
			d, ok, err := c.Next(0)
			if err != nil {
				fatalf("%v", err)
			}
			if !ok {
				fmt.Println("subscription ended")
				return
			}
			fmt.Printf("delta seq %d: %d vertices changed\n", d.Seq, len(d.Recs))
		}
	case "dump":
		// A full-width top-k is a consistent point-in-time dump of every
		// vertex — the smoke test's oracle comparison input.
		recs, seq, err := c.TopK(int(c.Welcome.NumV))
		if err != nil {
			fatalf("%v", err)
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].V < recs[j].V })
		f := os.Stdout
		if o.out != "-" {
			f, err = os.Create(o.out)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
		}
		for _, r := range recs {
			fmt.Fprintf(f, "%d %g\n", r.V, r.Val)
		}
		fmt.Fprintf(os.Stderr, "dumped %d vertices at seq %d\n", len(recs), seq)
	default:
		fatalf("unknown client op %q (want ingest, get, topk, stat, watch, or dump)", op)
	}
}
