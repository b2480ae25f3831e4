package main

import (
	"math"
	"sort"
	"time"
)

// sample is a list of measurements of one quantity, in its reporting unit.
type sample []float64

func (s sample) sorted() sample {
	c := append(sample(nil), s...)
	sort.Float64s(c)
	return c
}

// q returns the q-quantile (0..1) by linear interpolation between order
// statistics; 0 for an empty sample.
func (s sample) q(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s sample) p50() float64 { return s.q(0.50) }
func (s sample) p95() float64 { return s.q(0.95) }
func (s sample) p99() float64 { return s.q(0.99) }

func (s sample) sum() float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

func (s sample) max() float64 {
	m := 0.0
	for _, x := range s {
		if x > m {
			m = x
		}
	}
	return m
}

// quartileSpread is (Q3-Q1)/median with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which is
// what the acceptance driver computes over ten runs. NaN below two values.
func quartileSpread(v sample) float64 {
	n := len(v)
	if n < 2 {
		return math.NaN()
	}
	c := v.sorted()
	cut := func(k int) float64 { // k-th of 3 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (c[j-1]*float64(4-d) + c[j]*float64(d)) / 4
	}
	med := v.p50()
	if med == 0 {
		return math.NaN()
	}
	return (cut(3) - cut(1)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
