package serve

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The out-of-process acceptance test: a real graphfly serve is SIGKILLed mid-load
// (no drain, no final snapshot — pure process death), restarted on the same
// directory, and its point-in-time dump must match a from-scratch oracle
// over every batch the WAL preserved.

var (
	reListening = regexp.MustCompile(`listening on ([0-9.]+:[0-9]+)`)
	reRecovered = regexp.MustCompile(`replayed (\d+) batches to seq (\d+)`)
	reIngested  = regexp.MustCompile(`ingested batch (\d+): seq=(\d+)`)
)

func buildBinary(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// daemon wraps one running graphfly serve with a line-scanned stdout.
type daemon struct {
	cmd      *exec.Cmd
	lines    chan string
	scanDone chan struct{} // closed once stdout hits EOF (process exited)
	all      []string
}

// startDaemon launches graphfly serve and waits for its listen banner.
func startDaemon(t *testing.T, bin, walDir string, extra ...string) (*daemon, string) {
	t.Helper()
	args := append([]string{
		"serve", "-waldir", walDir, "-addr", "127.0.0.1:0",
		"-algo", "SSSP", "-dataset", "LJ", "-nEdges", "400",
		"-fsync", "always", "-snapshot-every", "4",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, lines: make(chan string, 64), scanDone: make(chan struct{})}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			d.lines <- sc.Text()
		}
		close(d.lines)
		close(d.scanDone)
	}()
	addr := ""
	for line := range d.lines {
		d.all = append(d.all, line)
		if m := reListening.FindStringSubmatch(line); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		t.Fatalf("daemon never listened; output: %v", d.all)
	}
	return d, addr
}

// drainOutput consumes the rest of the daemon's stdout (after it exited).
func (d *daemon) drainOutput() string {
	for line := range d.lines {
		d.all = append(d.all, line)
	}
	return strings.Join(d.all, "\n")
}

func TestDaemonKill9RecoversToOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real graphfly serve processes")
	}
	bin := buildBinary(t, "repro/cmd/graphfly")
	walDir := t.TempDir()

	d1, addr := startDaemon(t, bin, walDir)

	// Drive a single ordered ingest session, and SIGKILL the daemon the
	// moment the third ack lands — batches are guaranteed in flight.
	ing := exec.Command(bin, "query", "ingest", "-addr", addr,
		"-dataset", "LJ", "-nEdges", "400", "-numberOfUpdateBatches", "10")
	ing.Stderr = io.Discard
	ingOut, err := ing.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Process.Kill(); ing.Wait() })
	var maxAcked uint64
	acks := 0
	sc := bufio.NewScanner(ingOut)
	for sc.Scan() {
		m := reIngested.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		seq, _ := strconv.ParseUint(m[2], 10, 64)
		if seq > maxAcked {
			maxAcked = seq
		}
		if acks++; acks == 3 {
			d1.cmd.Process.Kill() // kill -9: no drain, no final snapshot
		}
	}
	ing.Wait() // dies on the severed connection; every printed ack counts
	d1.cmd.Wait()
	if acks < 3 {
		t.Fatalf("only %d acks before the daemon died", acks)
	}

	// Restart on the same directory: recovery must cover every acked batch.
	d2, addr2 := startDaemon(t, bin, walDir)
	var recovered uint64
	for _, line := range d2.all {
		if m := reRecovered.FindStringSubmatch(line); m != nil {
			recovered, _ = strconv.ParseUint(m[2], 10, 64)
		}
	}
	if recovered < maxAcked {
		t.Fatalf("recovered to seq %d but %d batches were acked durable", recovered, maxAcked)
	}

	// Full-width dump from the restarted daemon.
	dumpPath := filepath.Join(t.TempDir(), "dump.txt")
	dump := exec.Command(bin, "query", "dump", "-addr", addr2, "-o", dumpPath)
	if out, err := dump.CombinedOutput(); err != nil {
		t.Fatalf("dump: %v\n%s", err, out)
	}

	// Oracle: regenerate the exact workload (same dataset, seed, sizing as
	// the daemon and client — gen's prefix stability makes the recovered
	// batch count a prefix of the client's longer stream), apply the
	// recovered prefix from scratch, and solve.
	cfg := gen.Dataset("LJ")
	edges := gen.Generate(cfg)
	batchSize := 400
	if batchSize > len(edges)/2 {
		batchSize = len(edges) / 2
	}
	w := gen.BuildWorkload(cfg.NumV, edges, gen.StreamConfig{
		InitialFraction: 0.5, DeleteRatio: 0.1, BatchSize: batchSize,
		NumBatches: int(recovered), Seed: 42,
	})
	g := graph.FromEdges(w.NumV, w.Initial)
	for _, b := range w.Batches {
		g.ApplyBatch(b)
	}
	vals, _ := algo.SolveSelective(g, algo.SSSP{Src: 1})

	data, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != w.NumV {
		t.Fatalf("dump has %d vertices, want %d", len(lines), w.NumV)
	}
	for v, line := range lines {
		want := fmt.Sprintf("%d %g", v, vals[v])
		if line != want {
			t.Fatalf("vertex %d after kill -9: dump %q, oracle %q", v, line, want)
		}
	}

	// The restarted daemon drains cleanly on SIGTERM. Wait for stdout EOF
	// before cmd.Wait: Wait closes the pipe, which would race the scanner
	// out of the final drain banner.
	d2.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { <-d2.scanDone; done <- d2.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM drain exited: %v\n%s", err, d2.drainOutput())
		}
	case <-time.After(40 * time.Second):
		t.Fatal("daemon did not drain within 40s of SIGTERM")
	}
	if out := d2.drainOutput(); !strings.Contains(out, "drained: durable through seq") {
		t.Fatalf("no drain banner in output:\n%s", out)
	}
}
