package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program (or, for the
// children of a ProcessBatch span, one phase the program reported through
// BatchStats). Times are nanoseconds since the recorder started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Batch  int    `json:"batch"`  // spans of one batch share this id; -1 if none
}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced run: every method is a no-op.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its index for use as a parent.
func (r *recorder) add(name string, start, end time.Time, parent, batch int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name, int64(start.Sub(r.t0)), int64(end.Sub(r.t0)), parent, batch})
	return len(r.spans) - 1
}

// addPhases lays a batch's reported phase durations out back to back under
// parent, starting at start: BatchStats gives durations, not stamps, and the
// phases run in this order, so child starts are reconstructed offsets.
func (r *recorder) addPhases(parent, batch int, start time.Time, names []string, durs []time.Duration) {
	for i, d := range durs {
		r.add(names[i], start, start.Add(d), parent, batch)
		start = start.Add(d)
	}
}

func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	return writeJSON(path, r.spans)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// budgetRow is one layer's slice of an end-to-end latency.
type budgetRow struct {
	Layer    string  `json:"layer"`
	P50Ms    float64 `json:"p50_ms"`
	P50Share float64 `json:"p50_share"`
	P95Ms    float64 `json:"p95_ms"`
	P95Share float64 `json:"p95_share"`
	Note     string  `json:"note,omitempty"`
}

// budget decomposes one end-to-end latency into the layers that own it,
// with an explicit unattributed row.
type budget struct {
	Workload string      `json:"workload"`
	Metric   string      `json:"metric"` // the end-to-end latency decomposed
	P50Ms    float64     `json:"p50_ms"`
	P95Ms    float64     `json:"p95_ms"`
	Samples  int         `json:"samples"`
	Rows     []budgetRow `json:"rows"`
	Env      envStamp    `json:"env"`
}

// bandBudget builds a budget from per-batch decompositions: total[i] is the
// enclosing span of batch i and parts[k][i] layer k's time inside it. The
// p50 column averages the batches whose total lies in the 45th-55th
// percentile band and the p95 column those in the 92.5th-97.5th, so each
// column describes real batches of that speed and its shares sum to one.
func bandBudget(total sample, layers []string, parts []sample) budget {
	n := len(total)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return total[order[a]] < total[order[b]] })
	band := func(lo, hi float64) (tot float64, per []float64) {
		a, b := int(lo*float64(n)), int(hi*float64(n))
		if b <= a {
			b = a + 1
		}
		if b > n {
			a, b = n-1, n
		}
		per = make([]float64, len(parts))
		for _, i := range order[a:b] {
			tot += total[i]
			for k := range parts {
				per[k] += parts[k][i]
			}
		}
		c := float64(b - a)
		for k := range per {
			per[k] /= c
		}
		return tot / c, per
	}
	bd := budget{P50Ms: total.p50(), P95Ms: total.p95(), Samples: n}
	if n == 0 {
		return bd
	}
	t50, p50 := band(0.45, 0.55)
	t95, p95 := band(0.925, 0.975)
	u50, u95 := t50, t95
	for k, l := range layers {
		bd.Rows = append(bd.Rows, budgetRow{Layer: l,
			P50Ms: p50[k], P50Share: ratio(p50[k], t50),
			P95Ms: p95[k], P95Share: ratio(p95[k], t95)})
		u50 -= p50[k]
		u95 -= p95[k]
	}
	bd.Rows = append(bd.Rows, budgetRow{Layer: "unattributed",
		P50Ms: u50, P50Share: ratio(u50, t50), P95Ms: u95, P95Share: ratio(u95, t95)})
	return bd
}

// share returns layer's p50 share in the budget (0 when absent).
func (b budget) share(layer string) float64 {
	for _, r := range b.Rows {
		if r.Layer == layer {
			return r.P50Share
		}
	}
	return 0
}
