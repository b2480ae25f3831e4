package main

// graphfly serve is the long-lived serving daemon over a durable engine
// (selective or local): many concurrent ingest sessions append through the
// WAL group-commit layer (one shared fsync per group under -fsync always),
// and readers get consistent point-in-time answers from immutable
// batch-boundary snapshots. SIGTERM drains: admitted batches finish
// applying, sessions get a bye, and a final snapshot makes the next start
// recover instantly. graphfly query is its client:
//
//	graphfly serve -waldir /tmp/d -addr 127.0.0.1:8464 -algo SSSP -dataset LJ
//	graphfly query ingest -addr 127.0.0.1:8464 -numberOfUpdateBatches 8 -nEdges 2000
//	graphfly query get -addr 127.0.0.1:8464 -v 17    (also topk -k, watch -deltas, stat, dump -o)

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/wal"
)

const serveAddr = "127.0.0.1:8464"

func serveCmd() (*flag.FlagSet, func()) {
	fs := flag.NewFlagSet("graphfly serve", flag.ExitOnError)
	wl, af, ef := addWorkload(fs, 2000, 8), addAlgo(fs), addEngine(fs, "always")
	addr := addAddr(fs, serveAddr, "server listen address")
	dedupWindow := fs.Int("dedup-window", 64, "per-client idempotency window: resends of the last N acked batches per client identity dedup instead of re-applying (0 = default)")
	diskFault := fs.String("diskfault", "", "inject WAL disk faults (testing), e.g. 'after=3,count=1,err=enospc' — the daemon degrades to read-only and recovers when appends succeed")
	groupWindow := fs.Duration("group-window", 500*time.Microsecond, "fsync=always commit window: how long a sync leader yields for concurrent appends to share its fsync (0 = off; lone writers never wait)")
	maxSessions := fs.Int("max-sessions", 64, "concurrent session cap")
	maxPending := fs.Int("max-pending", 64, "admission window: logged-but-unapplied batches")
	return fs, func() {
		usage(wl.check())
		usage(ef.check())
		if *ef.walDir == "" {
			usagef("-waldir is required (the WAL is what makes acknowledged batches durable)")
		}
		alg, err := af.parse(nil)
		if err != nil {
			usagef("%v (serving supports BFS, SSSP, SSWP, CC, triangle, kcore)", err)
		}
		faults, err := wal.ParseDiskFaultSpec(*diskFault)
		usage(err)
		reg := metrics.NewRegistry()
		dc := ef.durableConfig(reg)
		dc.Wal.GroupWindow, dc.Wal.DiskFaults, dc.DedupWindow = *groupWindow, faults, *dedupWindow
		durable := openDurable(alg, ef.config(), dc, func() *graph.Streaming { return alg.initialGraph(wl.build(0)) })
		srv, err := serve.New(serve.Config{Addr: *addr, Durable: durable, MaxSessions: *maxSessions, MaxPending: *maxPending, Metrics: reg})
		must(err)
		fmt.Printf("graphflyd listening on %s (%s on %s, %d vertices, seq %d, fsync=%s)\n",
			srv.Addr(), alg.name, *wl.dataset, srv.State().NumVertices(), durable.Seq(), dc.Wal.Policy)

		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
		defer stop()
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "graphfly serve: signal received — draining")
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		must(srv.Shutdown(sctx))
		fmt.Printf("graphflyd drained: durable through seq %d\n", durable.Seq())
		if *ef.metrics {
			fmt.Print(reg.Snapshot().String())
		}
	}
}

func queryCmd() (*flag.FlagSet, func()) {
	fs := flag.NewFlagSet("graphfly query", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: graphfly query ingest|get|topk|stat|watch|dump [flags]")
		fs.PrintDefaults()
	}
	wl := addWorkload(fs, 2000, 8)
	addr := addAddr(fs, serveAddr, "server address")
	firstBatch := fs.Int("first-batch", 0, "ingest: skip the workload's first N batches (resume point)")
	vtx := fs.Uint("v", 1, "vertex for get")
	topk := fs.Int("k", 10, "k for topk")
	deltas := fs.Int("deltas", 1, "delta pushes to print before exiting in watch")
	outFile := fs.String("o", "-", "output file for dump ('-' = stdout)")
	timeout := fs.Duration("timeout", 10*time.Second, "dial/reply timeout")
	clientID := fs.String("client-id", "", "stable client identity for exactly-once resume: transport errors redial and resend the in-flight batch under its original sequence; the server dedups against its -dedup-window")
	return fs, func() {
		// The op may come before or after the flags.
		op := fs.Arg(0)
		if fs.NArg() > 0 {
			fs.Parse(fs.Args()[1:])
		}
		if !slices.Contains([]string{"ingest", "get", "topk", "stat", "watch", "dump"}, op) {
			usagef("unknown op %q (want ingest, get, topk, stat, watch, or dump)", op)
		} else if fs.NArg() > 0 {
			usagef("unexpected argument %q", fs.Arg(0))
		} else if *firstBatch < 0 {
			usagef("-first-batch %d is negative", *firstBatch)
		} else if *topk < 1 {
			usagef("-k %d is below 1", *topk)
		}
		usage(wl.check())
		role := serve.RoleQuery
		if op == "ingest" {
			role = serve.RoleIngest
		}
		// With -client-id, the session survives connection loss: transport
		// errors redial and resend the in-flight batch under its original
		// idempotency key, and the server's dedup window turns a resend of an
		// already-logged batch into an ack instead of a second apply.
		c, err := serve.DialOpts(*addr, serve.ClientOptions{Role: role, ClientID: *clientID, DialTimeout: *timeout, OpTimeout: *timeout, Seed: *wl.seed})
		must(err)
		defer c.Close()
		switch op {
		case "ingest":
			w := wl.build(*firstBatch + *wl.batches)
			if *firstBatch > len(w.Batches) {
				fatalf("-first-batch %d beyond the %d-batch workload", *firstBatch, len(w.Batches))
			}
			for i, b := range w.Batches[*firstBatch:] {
				seq, err := c.IngestRetry(b)
				if err != nil {
					fatalf("batch %d: %v", *firstBatch+i, err)
				}
				fmt.Printf("ingested batch %d: seq=%d edges=%d\n", *firstBatch+i, seq, len(b))
			}
		case "get":
			val, parent, seq, err := c.Get(graph.VertexID(*vtx))
			must(err)
			fmt.Printf("vertex %d: value %g parent %d (at seq %d)\n", *vtx, val, parent, seq)
		case "topk":
			recs, seq, err := c.TopK(*topk)
			must(err)
			fmt.Printf("top %d at seq %d:\n", len(recs), seq)
			for _, r := range recs {
				fmt.Printf("  %d %g\n", r.V, r.Val)
			}
		case "stat":
			st, err := c.Stat()
			must(err)
			fmt.Printf("applied seq %d, logged seq %d, %d sessions\n", st.AppliedSeq, st.LoggedSeq, st.Sessions)
		case "watch":
			must(c.Subscribe())
			for i := 0; i < *deltas; i++ {
				d, ok, err := c.Next(0)
				must(err)
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
			must(err)
			sort.Slice(recs, func(i, j int) bool { return recs[i].V < recs[j].V })
			out := os.Stdout
			if *outFile != "-" {
				out, err = os.Create(*outFile)
				must(err)
				defer out.Close()
			}
			for _, r := range recs {
				fmt.Fprintf(out, "%d %g\n", r.V, r.Val)
			}
			fmt.Fprintf(os.Stderr, "dumped %d vertices at seq %d\n", len(recs), seq)
		}
	}
}
