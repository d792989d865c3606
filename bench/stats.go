package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), so the spreads this
// benchmark reports match the ones an outside checker computes from the same
// values. With fewer than two samples both quartiles equal the only value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// percentile returns the nearest-rank p-th percentile of xs. ok is false
// unless at least ten samples lie beyond it, the fewest that make a tail
// percentile worth reporting.
func percentile(xs []float64, p float64) (value float64, ok bool) {
	n := len(xs)
	// The epsilon keeps float rounding of p·n from pushing an exact rank
	// up by one.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 || n-rank < 10 {
		return 0, false
	}
	return sorted(xs)[rank-1], true
}

// tail returns the highest of tailPercentiles that has at least ten samples
// beyond it, and its value. ok is false when not even the median has.
func tail(xs []float64) (pct, value float64, ok bool) {
	for _, p := range tailPercentiles {
		if v, ok := percentile(xs, p); ok {
			return p, v, true
		}
	}
	return 0, 0, false
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
