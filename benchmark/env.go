package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// envStamp records where a result was produced. Results from different
// environments are never compared (see compareSets).
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	CPU        string `json:"cpu_model"`
	GitSHA     string `json:"git_sha"` // "unknown" outside a git work tree
	Dirty      bool   `json:"git_dirty"`
	// KeepAwake is how many CPUs the idle-priority spinners held (0: off).
	// Part of the environment: results with and without are not comparable.
	KeepAwake int `json:"keep_awake_cpus"`
}

func stampEnv() envStamp {
	e := envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        cpuModel(),
		GitSHA:     "unknown",
	}
	// go build stamps the tree that produced the binary; a checkout that is
	// not a git repository (the acceptance driver's) carries no stamp.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.GitSHA = s.Value
			case "vcs.modified":
				e.Dirty = s.Value == "true"
			}
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sameMachine reports whether two results may be compared: everything but
// the code revision must match.
func (e envStamp) sameMachine(o envStamp) bool {
	e.GitSHA, e.Dirty, o.GitSHA, o.Dirty = "", false, "", false
	return e == o
}

// result is one run of one workload: what -out/result-*.json holds and what
// the contract line is cut from.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Smoke     bool     `json:"smoke"`
	Env       envStamp `json:"env"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// Invalid lists reasons the run's numbers must not be used (generator
	// ran late, backlog grew); empty on a good run.
	Invalid []string `json:"invalid,omitempty"`
	// Checks are the printed premises (workload separation, attribution).
	Checks  []string `json:"checks,omitempty"`
	Metrics values   `json:"metrics"`
	// Samples are the per-repetition (serve: per-cycle) values behind the
	// end-to-end estimators, so a noisy run can be read after the fact.
	Samples map[string]sample `json:"samples,omitempty"`
}

func newResult(s spec, o runOpts) *result {
	env := stampEnv()
	env.KeepAwake = o.awakeCPUs
	return &result{Workload: s.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced, Smoke: o.smoke, Env: env}
}

// tally records the operation counts; a non-nil err (oracle mismatch, engine
// error) makes the run incorrect.
func (r *result) tally(attempted, failed int, err error) {
	r.Attempted, r.Failed, r.Correct = attempted, failed, err == nil
	if err != nil {
		r.Invalid = append(r.Invalid, err.Error())
	}
}
