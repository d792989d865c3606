package rng_test

// Kolmogorov–Smirnov goodness-of-fit tests for the exponential sampler:
// stronger than the moment checks in dist_test.go because they compare the
// whole empirical CDF against theory. External test package so the stats
// helpers can be used without an import cycle.

import (
	"math"
	"testing"

	"ituaval/internal/rng"
	"ituaval/internal/stats"
)

func ksCheck(t *testing.T, name string, sample func(*rng.Stream) float64, cdf func(float64) float64) {
	t.Helper()
	s := rng.New(0xcafe)
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = sample(s)
	}
	stat := stats.KSStatistic(xs, cdf)
	p := stats.KSPValue(stat, len(xs))
	if p < 0.005 {
		t.Errorf("%s: KS rejected the sampler: D=%v p=%v", name, stat, p)
	}
}

func TestKSExponential(t *testing.T) {
	ksCheck(t, "Expo(2.5)", func(s *rng.Stream) float64 { return s.Expo(2.5) }, func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return 1 - math.Exp(-2.5*x)
	})
}

func TestKSDetectsWrongSampler(t *testing.T) {
	// Negative control: an Expo(1) sample against an Expo(2) hypothesis
	// must be rejected decisively.
	s := rng.New(7)
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = s.Expo(1)
	}
	stat := stats.KSStatistic(xs, func(x float64) float64 { return 1 - math.Exp(-2*x) })
	if p := stats.KSPValue(stat, len(xs)); p > 1e-9 {
		t.Fatalf("KS failed to reject a mismatched sampler: D=%v p=%v", stat, p)
	}
}
