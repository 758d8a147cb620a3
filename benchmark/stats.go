package main

import (
	"math"
	"sort"
)

// dist summarises a sample: median and quartiles by the exclusive method
// (Python's statistics.quantiles(xs, n=4), the same numbers a reader of the
// raw values computes), plus the sample count.
type dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs. A single sample is its
// own median and quartiles; an empty sample is all zeros with N = 0.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s)}
	switch len(s) {
	case 0:
		return d
	case 1:
		d.Median, d.Q1, d.Q3 = s[0], s[0], s[0]
		return d
	}
	d.Median = sortedMedian(s)
	d.Q1 = exclusiveQuartile(s, 1)
	d.Q3 = exclusiveQuartile(s, 3)
	return d
}

// median returns the median of xs (the mean of the two middle values for an
// even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedMedian(s)
}

func sortedMedian(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// exclusiveQuartile is quartile i (1..3) of sorted s, len(s) >= 2, by
// Python's exclusive method: position i·(n+1)/4, with the index clamped to
// [1, n-1] and linear inter- or extrapolation between its neighbours.
func exclusiveQuartile(s []float64, i int) float64 {
	n := len(s)
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// tailMinBeyond is how many samples must lie above a tail percentile before
// it is reported: fewer, and the percentile is one or two outliers.
const tailMinBeyond = 10

// tail returns the p-th percentile (0 < p < 1, nearest rank) of xs and
// whether at least tailMinBeyond samples lie beyond it.
func tail(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < tailMinBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], true
}
