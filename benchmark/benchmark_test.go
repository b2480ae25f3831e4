package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmokeSchema runs every workload's smoke profile, untraced and traced,
// and checks what the contract checks: every declared metric present, finite
// and with its unit, no failed operation, outputs correct.
func TestSmokeSchema(t *testing.T) {
	out := t.TempDir()
	for _, s := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(s, runOpts{seed: 7, seconds: 0.3, traced: traced, smoke: true, outDir: out})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d invalid=%v",
					s.Name, traced, res.Correct, res.Attempted, res.Failed, res.Invalid)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, table declares %d", s.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", s.Name, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", s.Name, d.Name, m.Value)
				case m.Unit != d.Unit || m.Unit == "":
					t.Errorf("%s: metric %s has unit %q, want %q", s.Name, d.Name, m.Unit, d.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", s.Name, d.Name, m.Value)
				}
			}
			var line contractLine
			if err := json.Unmarshal([]byte(res.contractJSON()), &line); err != nil || len(line.Metrics) != len(defs) {
				t.Errorf("%s: contract line does not round-trip: %v", s.Name, err)
			}
			if traced {
				for _, f := range []string{"budget-" + s.Name + ".json", "trace-" + s.Name + ".json"} {
					if st, err := os.Stat(filepath.Join(out, f)); err != nil || st.Size() == 0 {
						t.Errorf("%s: %s not written: %v", s.Name, f, err)
					}
				}
			}
		}
	}
}

// TestManifest checks that BENCHMARK.json at the repository root is the one
// the metric tables generate, and stays inside the contract's limits.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	want, _ := json.Marshal(buildManifest())
	got, _ := json.Marshal(onDisk)
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json is out of step with the tables; regenerate with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if n := len(onDisk.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(onDisk.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(onDisk.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if onDisk.RunSeconds < 1 || onDisk.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", onDisk.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range onDisk.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range onDisk.EndToEnd {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %+v breaks the contract", d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	for _, d := range onDisk.PerLayer {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer %+v breaks the contract", d)
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
	v := sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestCompareRefusesOtherMachine(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	r := &result{Workload: workloads[0].Name, Correct: true, Attempted: 1, Env: stampEnv(), Metrics: values{}}
	for _, d := range endToEnd {
		r.Metrics[d.Name] = measured{Value: 1, Unit: d.Unit}
	}
	if err := writeJSON(resultPath(dirA, r.Workload, 1, false), r); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(resultPath(dirB, r.Workload, 1, false), r); err != nil {
		t.Fatal(err)
	}
	if err := compareDirs(dirA, dirB); err != nil {
		t.Errorf("same machine, same numbers: %v", err)
	}
	r.Env.NProc++
	if err := writeJSON(resultPath(dirB, r.Workload, 1, false), r); err != nil {
		t.Fatal(err)
	}
	if err := compareDirs(dirA, dirB); err == nil {
		t.Error("compared results from different environments")
	}
}
