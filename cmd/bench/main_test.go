package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadInputExits2 drives the built binary: every rejected command line
// exits 2 with a message and the usage, before any figure runs or any
// profile is started.
func TestBadInputExits2(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives a real bench process")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bench")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/bench")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cpu := filepath.Join(dir, "cpu.prof")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "4b", "-edgecap", "-5"}, "-edgecap must be >= 0"},
		{[]string{"-fig", "4b", "-batch", "-3"}, "-batch must be >= 0"},
		{[]string{"-fig", "4b", "-batches", "-1"}, "-batches must be >= 0"},
		{[]string{"-fig", "4b", "-workers", "-2"}, "-workers must be >= 0"},
		{[]string{"-fig", "4b", "11"}, `unexpected argument "11"`},
		{[]string{"-fig", "99", "-cpuprofile", cpu}, `unknown figure "99"`},
		{[]string{"-fig", "4b,s7"}, `unknown figure "s7"`},
		{[]string{"-json", "-fig", "4b"}, "flag provided but not defined: -json"},
		{[]string{"-out", "x.json", "-fig", "4b"}, "flag provided but not defined: -out"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%v: want exit 2, got %v\n%s", tc.args, err, stderr.String())
			continue
		}
		msg := stderr.String()
		if !strings.Contains(msg, tc.want) || !strings.Contains(strings.ToLower(msg), "usage") {
			t.Errorf("%v: want %q and the usage, got\n%s", tc.args, tc.want, msg)
		}
		if stdout.Len() > 0 {
			t.Errorf("%v: a rejected command line printed a table:\n%s", tc.args, stdout.String())
		}
	}
	if _, err := os.Stat(cpu); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a rejected command line started the CPU profile (%s: %v)", cpu, err)
	}
}
