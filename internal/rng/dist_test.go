package rng

import (
	"math"
	"testing"
)

// checkMoments draws n samples and verifies the empirical mean and variance
// against theory within tol standard errors.
func checkMoments(t *testing.T, name string, sample func(*Stream) float64, wantMean, wantVar float64, n int, tolMean, tolVar float64) {
	t.Helper()
	s := New(0xd15720)
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := sample(s)
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-wantMean) > tolMean {
		t.Fatalf("%s: mean %v, want %v ± %v", name, mean, wantMean, tolMean)
	}
	if math.Abs(variance-wantVar) > tolVar {
		t.Fatalf("%s: variance %v, want %v ± %v", name, variance, wantVar, tolVar)
	}
}

func TestExponentialDist(t *testing.T) {
	checkMoments(t, "Expo(4)", func(s *Stream) float64 { return s.Expo(4) }, 0.25, 0.0625, 200000, 0.005, 0.005)
}
