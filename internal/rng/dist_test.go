package rng

import (
	"math"
	"testing"
)

// checkMoments draws n samples and verifies the empirical mean and variance
// against theory within tol standard errors.
func checkMoments(t *testing.T, d Dist, wantMean, wantVar float64, n int, tolMean, tolVar float64) {
	t.Helper()
	s := New(0xd15720)
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := d.Sample(s)
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-wantMean) > tolMean {
		t.Fatalf("%v: mean %v, want %v ± %v", d, mean, wantMean, tolMean)
	}
	if math.Abs(variance-wantVar) > tolVar {
		t.Fatalf("%v: variance %v, want %v ± %v", d, variance, wantVar, tolVar)
	}
}

func TestExponentialDist(t *testing.T) {
	d := Expo(4)
	if math.Abs(d.Mean()-0.25) > 1e-12 {
		t.Fatalf("Mean() = %v", d.Mean())
	}
	checkMoments(t, d, 0.25, 0.0625, 200000, 0.005, 0.005)
}

func TestDeterministicDist(t *testing.T) {
	d := Deterministic{V: 3.5}
	s := New(1)
	for i := 0; i < 10; i++ {
		if d.Sample(s) != 3.5 {
			t.Fatal("deterministic sample varied")
		}
	}
	checkMoments(t, d, 3.5, 0, 100, 1e-12, 1e-12)
}

func TestDistStrings(t *testing.T) {
	for _, d := range []Dist{Expo(1), Deterministic{V: 1}} {
		if d.String() == "" {
			t.Fatalf("%T has empty String()", d)
		}
	}
}
