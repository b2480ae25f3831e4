// Command graphfly-worker is one worker process of the socket cluster
// runtime. It dials the coordinator given by -addr, persists every applied
// batch and commanded checkpoint in the wal directory -dir, and processes
// its share of the dependency flows until told to stop. Link timing uses the
// same defaults as the coordinator's.
//
// Exit status: 0 after a graceful shutdown (SIGTERM/SIGINT, or the
// coordinator saying bye), nonzero when the coordinator link degrades past
// the retry budget — a supervisor should respawn the process with the SAME
// -dir and -id so the restart recovers from its WAL and rejoins.
//
// Example:
//
//	graphfly-worker -addr 127.0.0.1:7421 -dir /tmp/cluster/worker-0 -id 0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/dist"
)

func main() {
	addr := flag.String("addr", "", "coordinator address (required)")
	dir := flag.String("dir", "", "wal directory for this worker's batch log and snapshots (required)")
	id := flag.Int("id", -1, "worker id to present; -1 lets the coordinator assign one, restarts must present their previous id")
	quiet := flag.Bool("quiet", false, "suppress progress lines on stderr")
	flag.Parse()
	if *addr == "" || *dir == "" {
		fmt.Fprintln(os.Stderr, "graphfly-worker: -addr and -dir are required")
		os.Exit(2)
	}

	// SIGTERM/SIGINT cancel the context; RunWorker turns that into a bye,
	// a WAL flush, and a final checkpoint before returning nil.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	var logf func(string, ...any)
	if !*quiet {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "graphfly-worker[%d]: %s\n", os.Getpid(), fmt.Sprintf(format, args...))
		}
	}
	err := dist.RunWorker(ctx, dist.WorkerConfig{Addr: *addr, Dir: *dir, ID: *id, Logf: logf})
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphfly-worker[%d]: %v\n", os.Getpid(), err)
		os.Exit(1)
	}
}
