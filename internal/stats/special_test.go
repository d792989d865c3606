package stats

import (
	"math"
	"testing"

	"ituaval/internal/rng"
)

func TestRegIncBetaKnownValues(t *testing.T) {
	cases := []struct {
		a, b, x, want float64
	}{
		{1, 1, 0.3, 0.3},     // I_x(1,1) = x
		{2, 2, 0.5, 0.5},     // symmetric
		{2, 1, 0.5, 0.25},    // I_x(2,1) = x^2
		{1, 2, 0.5, 0.75},    // 1-(1-x)^2
		{5, 3, 0, 0},         // bounds
		{5, 3, 1, 1},         // bounds
		{0.5, 0.5, 0.5, 0.5}, // arcsine distribution median
		// I_0.9(10,2) = P(Bin(11,0.9) >= 10) = 11·0.9^10·0.1 + 0.9^11
		{10, 2, 0.9, 0.6973568802},
	}
	for _, c := range cases {
		got := RegIncBeta(c.a, c.b, c.x)
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("I_%v(%v,%v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestTQuantileKnownValues(t *testing.T) {
	cases := []struct {
		p, nu, want float64
	}{
		{0.975, 1, 12.7062},
		{0.975, 9, 2.262157},
		{0.975, 29, 2.045230},
		{0.95, 9, 1.833113},
		{0.975, 1000, 1.962339},
		{0.5, 7, 0},
	}
	for _, c := range cases {
		got := TQuantile(c.p, c.nu)
		if math.Abs(got-c.want) > 2e-4*(1+math.Abs(c.want)) {
			t.Errorf("t_{%v,%v} = %v, want %v", c.p, c.nu, got, c.want)
		}
	}
	// Symmetry.
	if math.Abs(TQuantile(0.025, 9)+TQuantile(0.975, 9)) > 1e-9 {
		t.Error("t quantile not symmetric")
	}
}

func TestTCDFQuantileRoundTrip(t *testing.T) {
	for _, nu := range []float64{1, 3, 10, 100} {
		for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
			x := TQuantile(p, nu)
			if got := TCDF(x, nu); math.Abs(got-p) > 1e-8 {
				t.Errorf("TCDF(TQuantile(%v,%v)) = %v", p, nu, got)
			}
		}
	}
}

func TestKSExponentialSample(t *testing.T) {
	// A genuine exponential sample should not be rejected at α=0.01.
	s := rng.New(42)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = s.Expo(3)
	}
	d := KSStatistic(xs, func(x float64) float64 { return 1 - math.Exp(-3*x) })
	p := KSPValue(d, len(xs))
	if p < 0.01 {
		t.Fatalf("KS rejected a true exponential sample: D=%v p=%v", d, p)
	}
	// A wrong-rate hypothesis should be strongly rejected.
	dBad := KSStatistic(xs, func(x float64) float64 { return 1 - math.Exp(-1*x) })
	if pBad := KSPValue(dBad, len(xs)); pBad > 1e-6 {
		t.Fatalf("KS failed to reject a wrong CDF: D=%v p=%v", dBad, pBad)
	}
}

func TestKSEdgeCases(t *testing.T) {
	expo := func(x float64) float64 { return 1 - math.Exp(-x) }
	if !math.IsNaN(KSStatistic(nil, expo)) {
		t.Error("KS of empty sample should be NaN")
	}
	if KSPValue(0, 100) != 1 {
		t.Error("KS p-value at D=0 should be 1")
	}
}
