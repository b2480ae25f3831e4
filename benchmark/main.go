// Command benchmark is the repository's performance benchmark: four
// workloads over the library engines and the serving path, end-to-end
// metrics from an untraced run, per-layer metrics and a latency budget from
// a traced one, correctness checked against the oracle inside the same
// command. README.md in this directory defines every workload and metric;
// BENCHMARK.json at the repository root declares them to the acceptance
// driver.
//
//	bash benchmark/run.sh --workload sssp-tt-stream --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh                       # every workload, untraced then traced
//	bash benchmark/run.sh --selfcheck --runs 10  # repeatability of this machine
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all, untraced then traced)")
		seed      = flag.Uint64("seed", 1, "input seed: the same seed gives the same graph, stream and reads")
		seconds   = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics and the budget, traced")
		smoke     = flag.Bool("smoke", false, "shrink every workload to a schema check (numbers carry no claim)")
		outDir    = flag.String("out", filepath.Join("benchmark", "out"), "directory for results, budgets, traces and WAL scratch")
		selfcheck = flag.Bool("selfcheck", false, "run two full untraced sets and report medians, spread and bound per metric")
		runs      = flag.Int("runs", 5, "runs (seeds) per workload in each -selfcheck set")
		compare   = flag.String("compare", "", "dirA,dirB: compare two sets of result files written by -selfcheck")
		printMf   = flag.Bool("manifest", false, "print BENCHMARK.json from the metric tables and exit")
		keepAwake = flag.Bool("keepawake", true, "on the workloads that ask for it, hold every CPU in an idle-priority busy loop while measuring (README \"Keep-awake\"); off only to see what it does")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	o := runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1, smoke: *smoke, outDir: *outDir, keepAwake: *keepAwake}

	switch {
	case *printMf:
		b, _ := json.MarshalIndent(buildManifest(), "", "  ")
		fmt.Println(string(b))
		return
	case *compare != "":
		a, b, ok := strings.Cut(*compare, ",")
		if !ok {
			fatalf("-compare wants dirA,dirB")
		}
		exitIf(compareDirs(a, b))
		return
	}
	s, ok := findWorkload(*workload)
	if *workload != "" && !ok {
		fatalf("unknown workload %q", *workload)
	}
	os.Exit(measure(s, o, *workload == "", *selfcheck, *runs))
}

// measure runs what the command line asked for and returns the exit code:
// 0, 1 for a run whose results are incorrect, 2 for a run that could not be
// made.
func measure(s spec, o runOpts, all, selfcheck bool, runs int) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	switch {
	case selfcheck:
		if err := selfCheck(o, runs); err != nil {
			return fail(err)
		}
	case all:
		for _, traced := range []bool{false, true} {
			for _, s := range workloads {
				o.traced = traced
				if _, err := runOne(s, o); err != nil {
					return fail(fmt.Errorf("%s: %w", s.Name, err))
				}
			}
		}
	default:
		res, err := runOne(s, o)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", s.Name, err))
		}
		// The contract line is the last line of standard output.
		fmt.Println(res.contractJSON())
		if !res.Correct {
			return 1
		}
	}
	return 0
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", a...)
	os.Exit(2)
}

func exitIf(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

// runOne runs one workload once, prints its table, and files the result
// under o.outDir.
func runOne(s spec, o runOpts) (*result, error) {
	o.awakeCPUs = 0
	if s.KeepAwake && o.keepAwake {
		var stop func()
		o.awakeCPUs, stop = startKeepAwake()
		defer stop()
	}
	if o.smoke {
		s = s.smoke()
		if o.seconds > 0.5 {
			o.seconds = 0.5
		}
	}
	var res *result
	var err error
	if s.Kind == kindServe {
		res, err = runServe(s, o)
	} else {
		res, err = runEngine(s, o)
	}
	if err != nil {
		return nil, err
	}
	res.print()
	return res, writeJSON(resultPath(o.outDir, s.Name, o.seed, o.traced), res)
}

func resultPath(dir, workload string, seed uint64, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(dir, fmt.Sprintf("result-%s-seed%d-trace%d.json", workload, seed, t))
}

// print writes the human-readable table: every metric by name, with its
// unit and the number of samples behind it.
func (r *result) print() {
	mode := "untraced, end-to-end"
	defs := endToEnd
	if r.Traced {
		mode, defs = "traced, per-layer", perLayer
	}
	fmt.Printf("\n== %s  seed %d  %s  (%s, GOMAXPROCS %d, keep-awake on %d CPUs, %s, git %s dirty=%v)\n",
		r.Workload, r.Seed, mode, r.Env.CPU, r.Env.GOMAXPROCS, r.Env.KeepAwake, r.Env.GoVersion, r.Env.GitSHA, r.Env.Dirty)
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Printf("  %-40s %16.6g %-10s n=%d\n", d.Name, m.Value, m.Unit, m.N)
	}
	fmt.Printf("  operations: attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, c := range r.Checks {
		fmt.Println("  check:", c)
	}
	for _, c := range r.Invalid {
		fmt.Println("  INVALID:", c)
	}
}

func printBudget(b budget) {
	fmt.Printf("\n-- budget of %s on %s: p50 %.3f ms, p95 %.3f ms, %d samples\n", b.Metric, b.Workload, b.P50Ms, b.P95Ms, b.Samples)
	fmt.Printf("  %-24s %10s %8s %10s %8s\n", "layer", "p50 ms", "share", "p95 ms", "share")
	for _, r := range b.Rows {
		fmt.Printf("  %-24s %10.3f %7.1f%% %10.3f %7.1f%%\n", r.Layer, r.P50Ms, 100*r.P50Share, r.P95Ms, 100*r.P95Share)
	}
}

// selfCheck runs two full untraced sets (runs seeds per workload each, the
// same seeds in both), files them under out/selfcheck-1 and -2, and compares
// them the way the acceptance driver does.
func selfCheck(o runOpts, runs int) error {
	dirs := []string{filepath.Join(o.outDir, "selfcheck-1"), filepath.Join(o.outDir, "selfcheck-2")}
	o.traced = false
	for _, dir := range dirs {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		for _, s := range workloads {
			for i := 0; i < runs; i++ {
				ro := o
				ro.outDir, ro.seed = dir, o.seed+uint64(i)
				if _, err := runOne(s, ro); err != nil {
					return fmt.Errorf("%s seed %d: %w", s.Name, ro.seed, err)
				}
			}
		}
	}
	return compareDirs(dirs[0], dirs[1])
}

// loadSet reads every untraced result file of a directory, grouped by
// workload.
func loadSet(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "result-*-trace0.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no untraced result files in %s", dir)
	}
	sort.Strings(paths)
	set := map[string][]*result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		set[r.Workload] = append(set[r.Workload], &r)
	}
	return set, nil
}

// compareDirs prints, per workload and end-to-end metric, both sets'
// medians, the larger quartile spread and the bound. A metric is unresolved
// when its spread exceeds its bound (the sets cannot tell a regression from
// noise) and regressed when the second median is worse than the first by
// more than the bound. Results from different environments are refused.
func compareDirs(dirA, dirB string) error {
	a, err := loadSet(dirA)
	if err != nil {
		return err
	}
	b, err := loadSet(dirB)
	if err != nil {
		return err
	}
	// Runs of one workload are what gets compared, so it is their
	// environments that must agree (keep-awake differs between workloads).
	for _, s := range workloads {
		rs := append(append([]*result(nil), a[s.Name]...), b[s.Name]...)
		for _, r := range rs[min(1, len(rs)):] {
			if !rs[0].Env.sameMachine(r.Env) {
				return fmt.Errorf("refusing to compare %s across environments: %+v vs %+v", s.Name, rs[0].Env, r.Env)
			}
		}
	}
	bad := 0
	for _, s := range workloads {
		ra, rb := a[s.Name], b[s.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Printf("\n== %s: %d vs %d runs\n", s.Name, len(ra), len(rb))
		fmt.Printf("  %-16s %14s %14s %8s %8s %7s  %s\n", "metric", "median A", "median B", "B vs A", "spread", "bound", "verdict")
		for _, d := range endToEnd {
			va, vb := column(ra, d.Name), column(rb, d.Name)
			worse := ratio(vb.p50(), va.p50()) - 1
			if d.Better == "higher" {
				worse = ratio(va.p50(), vb.p50()) - 1
			}
			spread := quartileSpread(va)
			if sb := quartileSpread(vb); sb > spread {
				spread = sb
			}
			verdict := "ok"
			switch {
			case d.Name != "setup_s" && spread > d.Bound:
				verdict = "unresolved"
				bad++
			case worse > d.Bound:
				verdict = "regressed"
				bad++
			case d.Name != "setup_s" && spread > d.Bound/3:
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("  %-16s %14.6g %14.6g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				d.Name, va.p50(), vb.p50(), 100*worse, 100*spread, 100*d.Bound, verdict)
		}
		for _, r := range append(append([]*result(nil), ra...), rb...) {
			if r.Failed > 0 || !r.Correct || len(r.Invalid) > 0 {
				fmt.Printf("  seed %d: failed %d, correct %v, invalid %v\n", r.Seed, r.Failed, r.Correct, r.Invalid)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) unresolved or regressed, or run(s) failed", bad)
	}
	return nil
}

func column(rs []*result, name string) sample {
	var s sample
	for _, r := range rs {
		s = append(s, r.Metrics[name].Value)
	}
	return s
}
