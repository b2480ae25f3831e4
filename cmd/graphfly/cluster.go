package main

// Cluster mode: graphfly -cluster N -waldir D runs the socket coordinator
// in this process and supervises N real worker processes (this executable's
// worker subcommand), each with its own WAL directory under D. Workers that
// die (crash, kill -9) are respawned with the same -dir and -id so they
// recover locally and rejoin; workers that exit cleanly (coordinator bye,
// SIGTERM) stay down. Pid files (D/worker-<id>.pid) track the live
// processes so external chaos harnesses (scripts/chaos.sh) can pick victims.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/algo"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// clusterRuntime ties the in-process coordinator to the worker supervisor.
type clusterRuntime struct {
	coord *dist.Coordinator
	sup   *supervisor
}

// startCluster launches the coordinator, spawns n supervised workers, and
// waits until all n have joined.
func startCluster(ctx context.Context, g *graph.Streaming, a algo.Selective,
	n, flowCap, ckptEvery int, dir, addr string, reg *metrics.Registry) (*clusterRuntime, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	coord, err := dist.NewCoordinator(g, a, dist.CoordConfig{
		Addr:      addr,
		FlowCap:   flowCap,
		CkptEvery: ckptEvery,
		Metrics:   reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "graphfly: coord: %s\n", fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return nil, err
	}
	sup := &supervisor{bin: bin, addr: coord.Addr(), dir: dir, procs: map[int]*os.Process{}}
	for i := 0; i < n; i++ {
		sup.wg.Add(1)
		go sup.runLoop(i)
	}
	if err := coord.WaitForWorkers(ctx, n); err != nil {
		sup.stop()
		coord.Close()
		return nil, fmt.Errorf("waiting for %d workers: %w", n, err)
	}
	return &clusterRuntime{coord: coord, sup: sup}, nil
}

// close byes the workers through the coordinator, then reaps the processes.
func (c *clusterRuntime) close() {
	c.coord.Close()
	c.sup.stop()
}

// supervisor spawns worker processes and respawns any that die
// uncleanly, preserving each worker's id and durable directory.
type supervisor struct {
	bin, addr, dir string

	mu       sync.Mutex
	stopping bool
	procs    map[int]*os.Process
	wg       sync.WaitGroup
}

func (s *supervisor) runLoop(id int) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		if s.stopping {
			s.mu.Unlock()
			return
		}
		cmd := exec.Command(s.bin, "worker", "-addr", s.addr,
			"-dir", filepath.Join(s.dir, fmt.Sprintf("worker-%d", id)), "-id", strconv.Itoa(id))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			s.mu.Unlock()
			fmt.Fprintf(os.Stderr, "graphfly: spawn worker %d: %v\n", id, err)
			return
		}
		s.procs[id] = cmd.Process
		s.mu.Unlock()
		pidPath := filepath.Join(s.dir, fmt.Sprintf("worker-%d.pid", id))
		os.WriteFile(pidPath, []byte(strconv.Itoa(cmd.Process.Pid)+"\n"), 0o644)

		err := cmd.Wait()
		s.mu.Lock()
		delete(s.procs, id)
		stopping := s.stopping
		s.mu.Unlock()
		os.Remove(pidPath)
		if stopping || err == nil {
			// Clean exit: the worker was told to stop (bye / SIGTERM).
			return
		}
		fmt.Fprintf(os.Stderr, "graphfly: worker %d died (%v) — respawning\n", id, err)
		time.Sleep(200 * time.Millisecond)
	}
}

// stop terminates the remaining workers gracefully, escalating to SIGKILL
// after a timeout, and waits for every monitor goroutine to finish.
func (s *supervisor) stop() {
	s.mu.Lock()
	s.stopping = true
	for _, p := range s.procs {
		p.Signal(syscall.SIGTERM)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.mu.Lock()
		for _, p := range s.procs {
			p.Kill()
		}
		s.mu.Unlock()
		<-done
	}
}

// workerCmd is one worker process of the socket cluster runtime. It dials
// the coordinator at -addr, persists every applied batch and its periodic
// checkpoints in -dir, and processes its share of the dependency flows until
// told to stop. It exits 0 after a graceful shutdown (SIGTERM/SIGINT, or the
// coordinator's bye) and nonzero when its connection to the coordinator
// ends: a supervisor respawns it with the SAME -dir and -id so the restart
// recovers from its WAL and rejoins.
func workerCmd() (*flag.FlagSet, func()) {
	fs := flag.NewFlagSet("graphfly worker", flag.ExitOnError)
	addr := addAddr(fs, "", "coordinator address (required)")
	dir := fs.String("dir", "", "wal directory for this worker's batch log and snapshots (required)")
	id := fs.Int("id", -1, "worker id to present; -1 lets the coordinator assign one, restarts must present their previous id")
	return fs, func() {
		if *addr == "" || *dir == "" {
			usagef("-addr and -dir are required")
		}
		// SIGTERM/SIGINT cancel the context; RunWorker turns that into a
		// bye, a WAL flush, and a final checkpoint before returning nil.
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
		defer stop()
		logf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "graphfly worker[%d]: %s\n", os.Getpid(), fmt.Sprintf(format, args...))
		}
		if err := dist.RunWorker(ctx, dist.WorkerConfig{Addr: *addr, Dir: *dir, ID: *id, Logf: logf}); err != nil {
			fatalf("pid %d: %v", os.Getpid(), err)
		}
	}
}
