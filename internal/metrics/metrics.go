// Package metrics is the observability substrate of the repository: cheap
// atomic counters and gauges and log-bucketed duration histograms with
// p50/p95/p99 quantiles.
//
// The layer follows the same no-op discipline as cachesim.Probe: every
// integration point is nil-guarded (engine.Config.Metrics == nil), so a
// disabled registry costs one pointer comparison per batch — nothing on
// the per-edge hot paths.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores f.
func (g *Gauge) Set(f float64) { g.bits.Store(math.Float64bits(f)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram records int64 samples (typically nanoseconds) into
// log-spaced buckets with 16 linear sub-buckets per power of two, giving
// quantile estimates with bounded relative error (<= 1/16) at fixed
// memory (no per-sample allocation). All methods are safe for concurrent
// use; Observe is a single atomic add.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

const (
	histSubBits = 4 // 16 linear sub-buckets per octave
	histSub     = 1 << histSubBits
	// Values < histSub land in exact unit buckets; above that each octave
	// [2^k, 2^(k+1)) splits into histSub buckets. 63 octaves cover int64.
	histBuckets = histSub + (63-histSubBits)*histSub
)

// bucketOf maps a non-negative sample to its bucket index.
func bucketOf(v int64) int {
	if v < histSub {
		return int(v)
	}
	msb := 63 - bits.LeadingZeros64(uint64(v))
	sub := int((v >> (uint(msb) - histSubBits)) & (histSub - 1))
	return histSub + (msb-histSubBits)*histSub + sub
}

// bucketUpper returns the inclusive upper bound of bucket i, the value
// reported for quantiles that land in it.
func bucketUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	i -= histSub
	msb := i/histSub + histSubBits
	sub := i % histSub
	lo := int64(1) << uint(msb)
	step := lo >> histSubBits
	return lo + int64(sub+1)*step - 1
}

// Observe records one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest sample observed (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper-bound estimate of the q-quantile (q in [0,1]).
// The true quantile lies within one sub-bucket (<= 1/16 relative error).
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target sample, 1-based.
	rank := int64(q*float64(n-1)) + 1
	var cum int64
	for i := 0; i < histBuckets; i++ {
		if c := h.counts[i].Load(); c > 0 {
			cum += c
			if cum >= rank {
				u := bucketUpper(i)
				if m := h.max.Load(); u > m {
					return m // tightest known bound in the last bucket
				}
				return u
			}
		}
	}
	return h.max.Load()
}

// Snapshot captures the histogram's summary statistics.
func (h *Histogram) Snapshot() HistSnapshot {
	return HistSnapshot{
		Count: h.Count(),
		SumNs: h.Sum(),
		MaxNs: h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// HistSnapshot is the JSON form of a histogram summary. Field names keep
// the _ns suffix because every histogram in this repository records
// durations in nanoseconds.
type HistSnapshot struct {
	Count int64   `json:"count"`
	SumNs int64   `json:"sum_ns"`
	MaxNs int64   `json:"max_ns"`
	Mean  float64 `json:"mean_ns"`
	P50   int64   `json:"p50_ns"`
	P95   int64   `json:"p95_ns"`
	P99   int64   `json:"p99_ns"`
}

// Registry is a concurrency-safe, name-indexed collection of metrics.
// Lookups take a read lock; the returned metric objects are lock-free, so
// hot paths should hold onto them rather than re-resolving names.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric, ready for JSON.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// String renders the snapshot as sorted "name value" lines for CLI output.
func (s Snapshot) String() string {
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", n, v))
	}
	for n, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %g", n, v))
	}
	for n, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("%s count=%d mean=%.0fns p50=%dns p95=%dns p99=%dns max=%dns",
			n, h.Count, h.Mean, h.P50, h.P95, h.P99, h.MaxNs))
	}
	sort.Strings(lines)
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}
