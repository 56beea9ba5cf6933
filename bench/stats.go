package main

import (
	"math"
	"sort"
)

// quantile returns the exact q-quantile of sorted samples: the smallest
// sample with at least q of the population at or below it. No
// interpolation and no buckets — the value is one that was measured.
func quantile(sorted []float64, q float64) float64 {
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

// quantileOf is quantile for samples in any order; it leaves them as
// they are.
func quantileOf(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, q)
}

// tailPercentiles are the candidates for the reported tail, ascending.
var tailPercentiles = []float64{0.90, 0.99, 0.999, 0.9999}

// tailPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it; below 100 samples none qualifies and
// only the median is reported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if float64(n)*(1-c) >= 10-1e-9 {
			p, ok = c, true
		}
	}
	return p, ok
}

// distribution is what the report says about one set of latency
// samples: the median, the supported tail, and how many samples both
// rest on.
type distribution struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50"`
	// P99 is reported only when at least ten samples lie beyond it.
	P99 float64 `json:"p99,omitempty"`
	// TailPercentile (as a fraction) is the highest percentile with at
	// least ten samples beyond it, and Tail its value.
	TailPercentile float64 `json:"tail_percentile,omitempty"`
	Tail           float64 `json:"tail,omitempty"`
}

// describe sorts samples in place and summarises them.
func describe(samples []float64) distribution {
	sort.Float64s(samples)
	d := distribution{Samples: len(samples), P50: quantile(samples, 0.5)}
	if p, ok := tailPercentile(len(samples)); ok {
		d.TailPercentile, d.Tail = p, quantile(samples, p)
		if p >= 0.99 {
			d.P99 = quantile(samples, 0.99)
		}
	}
	return d
}

// medianIQR returns the median of values and their inter-quartile range
// as a share of it — the run's own "noise" figure for a rate measured
// over several sub-windows. Quartiles follow the exclusive method
// Python's statistics.quantiles(n=4) uses, so the figure is comparable
// with the spread the driver computes across runs.
func medianIQR(values []float64) (median, noise float64) {
	if len(values) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	median = at(0.5)
	if median != 0 {
		noise = (at(0.75) - at(0.25)) / median
	}
	return median, noise
}
