package metrics

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := r.Counter("c").Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.Gauge("g")
	g.Set(3.5)
	if got := r.Gauge("g").Value(); got != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", got)
	}
	// Names are namespaces: distinct kinds may share a name.
	if r.Counter("g").Value() != 0 {
		t.Fatal("counter aliased a gauge")
	}
}

func TestHistogramBucketsRoundTrip(t *testing.T) {
	// Every bucket's upper bound must map back into that bucket, and
	// bucket indexes must be monotone in the sample value.
	prev := -1
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64 / 2} {
		b := bucketOf(v)
		if b <= prev && v > 0 {
			// Buckets may repeat for nearby values but never go backwards.
			if b < prev {
				t.Fatalf("bucketOf(%d) = %d below previous %d", v, b, prev)
			}
		}
		prev = b
		if u := bucketUpper(b); u < v {
			t.Fatalf("bucketUpper(bucketOf(%d)) = %d < sample", v, u)
		}
		if b2 := bucketOf(bucketUpper(b)); b2 != b {
			t.Fatalf("bucket %d upper bound %d maps to bucket %d", b, bucketUpper(b), b2)
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Uniform samples in [0, 1e6): quantile estimates must be within one
	// sub-bucket (1/16 relative error) above the true quantile.
	var h Histogram
	x := rng.New(7)
	n := 20000
	for i := 0; i < n; i++ {
		h.Observe(int64(x.Intn(1_000_000)))
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h.Quantile(q)
		want := int64(q * 1_000_000)
		if got < want-want/8 || got > want+want/8 {
			t.Fatalf("Quantile(%v) = %d, want ~%d", q, got, want)
		}
	}
	if h.Count() != int64(n) {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Quantile(1) > h.Max() {
		t.Fatalf("p100 %d exceeds max %d", h.Quantile(1), h.Max())
	}
}

func TestHistogramSmallCounts(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Observe(100)
	if got := h.Quantile(0.5); got < 100 || got > 107 {
		t.Fatalf("single-sample p50 = %d", got)
	}
	h.Observe(-5) // clamps to 0
	if h.Quantile(0) != 0 {
		t.Fatalf("p0 = %d, want 0", h.Quantile(0))
	}
	if h.Max() != 100 {
		t.Fatalf("max = %d", h.Max())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, each = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := rng.New(uint64(w))
			for i := 0; i < each; i++ {
				h.Observe(int64(x.Intn(1 << 30)))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*each {
		t.Fatalf("count = %d, want %d", h.Count(), workers*each)
	}
	if h.Quantile(0.5) <= 0 || h.Quantile(0.99) < h.Quantile(0.5) {
		t.Fatalf("quantiles inconsistent: p50=%d p99=%d", h.Quantile(0.5), h.Quantile(0.99))
	}
}

func TestNilRecorderAndSnapshotString(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Inc()
	reg.Gauge("b").Set(2)
	reg.Histogram("h").Observe(5)
	s := reg.Snapshot().String()
	if s == "" {
		t.Fatal("empty snapshot rendering")
	}
}
