package dist

// Process-level chaos tests: build the real graphfly binary, run a cluster
// of actual OS processes (graphfly -cluster and its worker subcommands), and SIGKILL workers
// mid-stream through the supervisor's pid files. The cluster's converged
// output file must be byte-identical to a single-machine oracle run of the
// same workload — the acceptance criterion for kill -9 crash-restart.
//
// Kills are keyed to the coordinator's own "batch N:" progress lines
// rather than wall-clock, so a fast machine cannot finish the stream
// before the crash lands.
//
// scripts/chaos.sh drives TestProcChaos with GRAPHFLY_CHAOS_RUNS for the
// long seeded campaign; the smoke test here keeps one crash-restart cycle
// in the default `go test ./...` tier.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	procBuildOnce sync.Once
	procBinDir    string
	procBuildErr  error
)

// buildGraphfly compiles graphfly once per test binary and returns its
// path; -cluster starts its workers from the same executable.
func buildGraphfly(t *testing.T) string {
	t.Helper()
	procBuildOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			procBuildErr = err
			return
		}
		procBinDir, err = os.MkdirTemp("", "graphfly-bin-")
		if err != nil {
			procBuildErr = err
			return
		}
		cmd := exec.Command("go", "build", "-o", filepath.Join(procBinDir, "graphfly"), "./cmd/graphfly")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			procBuildErr = fmt.Errorf("go build ./cmd/graphfly: %v\n%s", err, out)
		}
	})
	if procBuildErr != nil {
		t.Fatal(procBuildErr)
	}
	return filepath.Join(procBinDir, "graphfly")
}

const procBatches = 12

// workloadArgs is the shared flag set: both the oracle and the cluster run
// must see the exact same generated stream (LJ preset, 4,800 vertices).
func workloadArgs() []string {
	return []string{
		"-algo", "SSSP", "-source", "1",
		"-dataset", "LJ", "-seed", "42", "-deletions", "0.3",
		"-numberOfUpdateBatches", strconv.Itoa(procBatches),
		"-nEdges", "2000",
	}
}

// runOracle produces the single-machine reference output file.
func runOracle(t *testing.T, bin, out string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, append(workloadArgs(), "-outputFile", out)...)
	if outB, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("oracle run: %v\n%s", err, outB)
	}
}

// syncBuffer is a mutex-guarded buffer the chaos goroutine can poll while
// the child process writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// runClusterWithChaos starts graphfly -cluster and SIGKILLs one random
// live worker after each batch index in killAfter appears in the output.
// It returns the number of kills landed. The whole process group gets
// SIGKILL on timeout so no worker leaks.
func runClusterWithChaos(t *testing.T, graphflyBin string,
	n int, clusterDir, out string, rng *rand.Rand, killAfter []int) int {
	t.Helper()
	args := append(workloadArgs(),
		"-cluster", strconv.Itoa(n),
		"-waldir", clusterDir,
		"-outputFile", out,
	)
	cmd := exec.Command(graphflyBin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	output := &syncBuffer{}
	cmd.Stdout = output
	cmd.Stderr = output
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pgid := cmd.Process.Pid

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	killCh := make(chan int, 1)
	chaosStop := make(chan struct{})
	go func() {
		kills := 0
		defer func() { killCh <- kills }()
		for _, after := range killAfter {
			marker := fmt.Sprintf("batch %d:", after)
			for !strings.Contains(output.String(), marker) {
				select {
				case <-chaosStop:
					return
				case <-time.After(2 * time.Millisecond):
				}
			}
			if pid, ok := pickVictim(clusterDir, rng); ok {
				if err := syscall.Kill(pid, syscall.SIGKILL); err == nil {
					kills++
					t.Logf("chaos: SIGKILLed worker pid %d after batch %d", pid, after)
				}
			}
		}
	}()

	var runErr error
	select {
	case runErr = <-done:
	case <-time.After(120 * time.Second):
		syscall.Kill(-pgid, syscall.SIGKILL)
		<-done
		close(chaosStop)
		t.Fatalf("cluster run exceeded its 120s budget\n%s", output.String())
	}
	close(chaosStop)
	landed := <-killCh
	if runErr != nil {
		t.Fatalf("cluster run: %v\n%s", runErr, output.String())
	}
	return landed
}

// pickVictim reads the supervisor's worker-<id>.pid files and picks one
// live pid at random.
func pickVictim(clusterDir string, rng *rand.Rand) (int, bool) {
	matches, _ := filepath.Glob(filepath.Join(clusterDir, "worker-*.pid"))
	var pids []int
	for _, m := range matches {
		b, err := os.ReadFile(m)
		if err != nil {
			continue
		}
		pid, err := strconv.Atoi(strings.TrimSpace(string(b)))
		if err != nil || pid <= 0 {
			continue
		}
		pids = append(pids, pid)
	}
	if len(pids) == 0 {
		return 0, false
	}
	return pids[rng.Intn(len(pids))], true
}

// compareOutputs asserts the cluster's converged values file is
// byte-identical to the oracle's.
func compareOutputs(t *testing.T, oraclePath, clusterPath string) {
	t.Helper()
	want, err := os.ReadFile(oraclePath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(clusterPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("oracle output is empty")
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("cluster output diverges from the single-machine oracle (%d vs %d bytes)",
			len(got), len(want))
	}
}

// TestProcCrashRestartSmoke is the CI-tier smoke: 3 real worker processes,
// one SIGKILL mid-stream, supervisor respawn, bit-exact convergence.
func TestProcCrashRestartSmoke(t *testing.T) {
	graphflyBin := buildGraphfly(t)
	dir := t.TempDir()
	oracleOut := filepath.Join(dir, "oracle.txt")
	clusterOut := filepath.Join(dir, "cluster.txt")

	runOracle(t, graphflyBin, oracleOut)
	kills := runClusterWithChaos(t, graphflyBin, 3,
		filepath.Join(dir, "cluster"), clusterOut,
		rand.New(rand.NewSource(1)), []int{1})
	if kills == 0 {
		t.Fatal("chaos landed no kill — the run finished before the crash; smoke proved nothing")
	}
	compareOutputs(t, oracleOut, clusterOut)
}

// TestProcChaos is the seeded kill -9 campaign. GRAPHFLY_CHAOS_RUNS picks
// the number of seeded runs (scripts/chaos.sh sets 20+); default is 2.
func TestProcChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("process chaos campaign is slow under -short")
	}
	runs := 2
	if s := os.Getenv("GRAPHFLY_CHAOS_RUNS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("bad GRAPHFLY_CHAOS_RUNS %q", s)
		}
		runs = v
	}
	graphflyBin := buildGraphfly(t)
	dir := t.TempDir()
	oracleOut := filepath.Join(dir, "oracle.txt")
	runOracle(t, graphflyBin, oracleOut)

	for seed := 1; seed <= runs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			// 2-3 kills at distinct random batch boundaries mid-stream.
			nk := 2 + rng.Intn(2)
			after := rng.Perm(procBatches - 2)[:nk]
			for i := range after {
				after[i]++ // batches 1..procBatches-2: never before batch 0 or after the last
			}
			sortInts(after)
			rdir := filepath.Join(dir, fmt.Sprintf("run-%d", seed))
			clusterOut := filepath.Join(dir, fmt.Sprintf("cluster-%d.txt", seed))
			kills := runClusterWithChaos(t, graphflyBin, 3,
				rdir, clusterOut, rng, after)
			t.Logf("seed %d: %d kills landed after batches %v", seed, kills, after)
			if kills == 0 {
				t.Fatal("chaos landed no kill")
			}
			compareOutputs(t, oracleOut, clusterOut)
		})
	}
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
