// Package stats provides the statistical substrate used throughout the
// library: numerically stable online accumulators, Student-t confidence
// intervals for simulation output analysis, paired-t comparisons, and the
// Kolmogorov–Smirnov statistic the sampler tests use.
package stats

import (
	"fmt"
	"math"
)

// Accumulator maintains running moments of a sample using Welford's
// algorithm. The zero value is an empty accumulator ready for use.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates x into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Merge combines another accumulator into a (parallel reduction), using the
// Chan et al. pairwise update.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	a.m2 += b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	a.mean += delta * float64(b.n) / float64(n)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n = n
}

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean (NaN if empty).
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// Variance returns the unbiased sample variance (NaN if fewer than two
// observations).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// Min returns the smallest observation (NaN if empty).
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.min
}

// Max returns the largest observation (NaN if empty).
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.max
}

// HalfWidth returns the half-width of a two-sided confidence interval for
// the mean at the given confidence level (e.g. 0.95), using the Student-t
// quantile with n-1 degrees of freedom. It returns NaN for n < 2.
func (a *Accumulator) HalfWidth(level float64) float64 {
	if a.n < 2 {
		return math.NaN()
	}
	t := TQuantile(1-(1-level)/2, float64(a.n-1))
	return t * a.StdErr()
}

// String formats the accumulator as "mean ± hw95 (n=N)".
func (a *Accumulator) String() string {
	return fmt.Sprintf("%.6g ± %.2g (n=%d)", a.Mean(), a.HalfWidth(0.95), a.n)
}
