package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/wal"
)

// The SIGTERM-during-batch audit (DESIGN.md §4.11): a -waldir run signaled at a
// batch marker must exit cleanly without snapshotting mid-batch state, and a
// recovery run over the same directory must land bit-exact on the oracle for
// however many batches survived — whether the signal hit at a boundary
// (clean final snapshot) or mid-apply (snapshot skipped, WAL tail replayed).

var (
	reBatchMark = regexp.MustCompile(`^batch (\d+): applied=`)
	reRecovSeq  = regexp.MustCompile(`replayed \d+ batches to seq (\d+)`)
)

func buildGraphfly(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "graphfly")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/graphfly")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func graphflyArgs(batches int, extra ...string) []string {
	return append([]string{
		"-algo", "SSSP", "-dataset", "LJ", "-nEdges", "400",
		"-numberOfUpdateBatches", strconv.Itoa(batches),
		"-seed", "42", "-deletions", "0.1",
	}, extra...)
}

func TestSigtermAtBatchMarkersRecoversClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real graphfly processes")
	}
	bin := buildGraphfly(t)

	for _, killAfter := range []int{1, 4} {
		t.Run(fmt.Sprintf("marker%d", killAfter), func(t *testing.T) {
			walDir := t.TempDir()

			// Run with the WAL on and SIGTERM the moment batch marker
			// killAfter prints — the next batch is typically mid-flight.
			cmd := exec.Command(bin, graphflyArgs(12,
				"-waldir", walDir, "-fsync", "always", "-snapshot-every", "4")...)
			cmd.Stderr = os.Stderr
			out, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
			markers := -1
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				if m := reBatchMark.FindStringSubmatch(sc.Text()); m != nil {
					markers, _ = strconv.Atoi(m[1])
					if markers == killAfter {
						cmd.Process.Signal(syscall.SIGTERM)
					}
				}
			}
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("SIGTERM exit: %v", err)
				}
			case <-time.After(40 * time.Second):
				t.Fatal("no clean exit within 40s of SIGTERM")
			}
			if markers < killAfter {
				t.Fatalf("only %d batch markers before exit", markers+1)
			}

			// Recovery run: no new batches, dump the recovered state.
			recPath := filepath.Join(t.TempDir(), "recovered.txt")
			rec := exec.Command(bin, graphflyArgs(0,
				"-waldir", walDir, "-fsync", "always", "-snapshot-every", "4",
				"-outputFile", recPath)...)
			recOut, err := rec.CombinedOutput()
			if err != nil {
				t.Fatalf("recovery run: %v\n%s", err, recOut)
			}
			m := reRecovSeq.FindSubmatch(recOut)
			if m == nil {
				t.Fatalf("no recovery banner in:\n%s", recOut)
			}
			seq, _ := strconv.Atoi(string(m[1]))
			// fsync=always: every marked batch was durable before its marker
			// printed, so recovery may never land short of the last marker.
			if seq < markers+1 || seq > 12 {
				t.Fatalf("recovered to seq %d; %d batches were acknowledged", seq, markers+1)
			}

			// Oracle: a fresh single-shot run over exactly seq batches
			// (gen's prefix stability: the first seq batches of the 12-batch
			// stream ARE the seq-batch stream). Byte-compare the dumps.
			oraPath := filepath.Join(t.TempDir(), "oracle.txt")
			ora := exec.Command(bin, graphflyArgs(seq, "-outputFile", oraPath)...)
			if out, err := ora.CombinedOutput(); err != nil {
				t.Fatalf("oracle run: %v\n%s", err, out)
			}
			got, err := os.ReadFile(recPath)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(oraPath)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("recovered values differ from the %d-batch oracle", seq)
			}
		})
	}
}

// TestSubcommandDefaults pins every shared flag's default per subcommand,
// so a shared registrar cannot silently hand serve run's -fsync interval.
func TestSubcommandDefaults(t *testing.T) {
	workload := func(nEdges, batches string) map[string]string {
		return map[string]string{"dataset": "LJ", "nEdges": nEdges, "numberOfUpdateBatches": batches,
			"deletions": "0.1", "seed": "42"}
	}
	engine := func(fsync string) map[string]string {
		return map[string]string{"algo": "SSSP", "source": "1", "workers": "0", "flowCap": "0",
			"waldir": "", "fsync": fsync, "snapshot-every": "16", "metrics": "false"}
	}
	join := func(ms ...map[string]string) map[string]string {
		all := map[string]string{}
		for _, m := range ms {
			for k, v := range m {
				all[k] = v
			}
		}
		return all
	}
	for _, tc := range []struct {
		sub    string
		want   map[string]string
		absent []string
	}{
		{"run", join(workload("100000", "1"), engine("interval"), map[string]string{"addr": "127.0.0.1:0"}),
			[]string{"wal", "clusterDir", "workerBin"}},
		{"serve", join(workload("2000", "8"), engine("always"), map[string]string{"addr": "127.0.0.1:8464"}),
			[]string{"client"}},
		{"query", join(workload("2000", "8"), map[string]string{"addr": "127.0.0.1:8464"}),
			[]string{"algo", "client", "waldir"}},
		{"worker", map[string]string{"addr": ""}, []string{"quiet", "dataset"}},
		{"gen", workload("10000", "3"), []string{"batch", "batches", "algo"}},
	} {
		fs, _ := subcommands[tc.sub]()
		for name, want := range tc.want {
			f := fs.Lookup(name)
			if f == nil {
				t.Errorf("%s: no -%s", tc.sub, name)
			} else if f.DefValue != want {
				t.Errorf("%s -%s defaults to %q, want %q", tc.sub, name, f.DefValue, want)
			}
		}
		for _, name := range tc.absent {
			if fs.Lookup(name) != nil {
				t.Errorf("%s still defines -%s", tc.sub, name)
			}
		}
	}
}

// TestBadInputExits2 feeds each subcommand input it must reject: exit 2
// with a usage message, never a panic or a silently wrong answer.
func TestBadInputExits2(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real graphfly processes")
	}
	bin := buildGraphfly(t)
	dir := t.TempDir()
	edges := filepath.Join(dir, "tiny.edges")
	if err := os.WriteFile(edges, []byte("0 1 1\n1 2 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	recovered := filepath.Join(dir, "recovered")
	if out, err := exec.Command(bin, graphflyArgs(1, "-waldir", recovered)...).CombinedOutput(); err != nil {
		t.Fatalf("seeding %s: %v\n%s", recovered, err, out)
	}
	small := []string{"-nEdges", "100", "-numberOfUpdateBatches", "1"}
	for _, args := range [][]string{
		{"-dataset", "XX"},
		{"serve", "-dataset", "XX", "-waldir", filepath.Join(dir, "s1")},
		{"query", "ingest", "-dataset", "XX"},
		{"gen", "-dataset", "XX", "-out", filepath.Join(dir, "g")},
		append([]string{"-algo", "LabelPropagation", "-labels", "0"}, small...),
		append([]string{"-algo", "LabelPropagation", "-labels", "-2"}, small...),
		append([]string{"-algo", "BFS", "-source", "4800"}, small...),
		append([]string{"-algo", "SSWP", "-source", "3", "-graphPath", edges}, small...),
		append([]string{"-algo", "SSSP", "-source", "99999", "-waldir", recovered}, small...),
		{"serve", "-algo", "SSSP", "-source", "99999", "-waldir", filepath.Join(dir, "s2")},
		append([]string{"-deletions", "1.5"}, small...),
		append([]string{"-deletions", "-0.1"}, small...),
		{"gen", "-deletions", "2", "-out", filepath.Join(dir, "g")},
		{"serve", "-algo", "PageRank", "-waldir", filepath.Join(dir, "s3")},
		{"bogus"},
		{"query", "bogus"},
		{"query", "ingest", "-first-batch", "-1"},
		{"query", "topk", "-k", "0"},
		{"query", "topk", "-k", "-3"},
		{"-wal"},
		{"-clusterDir", dir},
		{"-workerBin", bin},
		{"query", "-client", "ingest"},
		{"worker", "-quiet"},
		append([]string{"-workers", "-2"}, small...),
		append([]string{"-flowCap", "-5"}, small...),
		append([]string{"-hub-threshold", "-1"}, small...),
		{"-replicate-hubs"},
		{"-hub-replicas", "2"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%v: want exit 2, got %v\n%s", args, err, stderr.String())
			continue
		}
		if msg := stderr.String(); !strings.Contains(strings.ToLower(msg), "usage") || strings.Contains(msg, "panic:") {
			t.Errorf("%v: want a usage message and no panic, got\n%s", args, msg)
		}
	}
	// A rejected -source must not leave serve a snapshot to recover.
	if wal.HasSnapshot(filepath.Join(dir, "s2")) {
		t.Error("serve wrote a snapshot for an out-of-range -source")
	}
}
