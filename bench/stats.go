package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number in the single result schema: the value
// a gate compares, its unit, how many samples it summarizes, and the
// dispersion of those samples (zero when the value is a count or an
// exact size).
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1,omitempty"`
	Median float64 `json:"median,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the acceptance driver applies to
// run-to-run values; fewer than two values have no spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		// Cut point i of 4 over n values, positions on the (n+1) grid.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// percentile is the nearest-rank q-th percentile (0 < q <= 1) of an
// ascending slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summarize builds a metric whose value is pick(sorted samples) and
// whose dispersion fields describe the same samples.
func summarize(samples []float64, unit string, pick func(sorted []float64) float64) metric {
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	m := metric{Unit: unit, N: len(v)}
	if len(v) == 0 {
		return m
	}
	m.Value = pick(v)
	m.Q1, m.Median, m.Q3 = quartiles(v)
	m.Min, m.Max = v[0], v[len(v)-1]
	return m
}

// medianOf is the middle quartile; values need not be sorted.
func medianOf(values []float64) float64 { _, q2, _ := quartiles(values); return q2 }

func p99Of(sorted []float64) float64 { return percentile(sorted, 0.99) }

// exact is a metric with no sampling behind it: a count, a ratio of
// counts, or a byte size.
func exact(v float64, unit string, n int) metric { return metric{Value: v, Unit: unit, N: n} }

// tailPercentile names the highest of p99.9/p99.99 that still has at
// least ten samples beyond it, and its value; ok is false when the
// sample supports nothing beyond p99.
func tailPercentile(sorted []float64) (name string, value float64, ok bool) {
	for _, c := range []struct {
		name string
		q    float64
	}{{"p9999", 0.9999}, {"p999", 0.999}} {
		if float64(len(sorted))*(1-c.q) >= 10 {
			return c.name, percentile(sorted, c.q), true
		}
	}
	return "", 0, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}
