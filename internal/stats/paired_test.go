package stats

import (
	"math"
	"testing"
)

func TestPairedTBasic(t *testing.T) {
	// Strongly positively correlated pairs: delta variance far below the
	// sum of the marginal variances.
	a := []float64{1.0, 2.0, 3.0, 4.0, 5.0}
	b := []float64{0.9, 1.8, 2.9, 3.8, 4.9}
	r, err := PairedT(a, b, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 5 || r.Dropped != 0 {
		t.Fatalf("N=%d Dropped=%d, want 5 and 0", r.N, r.Dropped)
	}
	if math.Abs(r.Delta-0.14) > 1e-12 {
		t.Fatalf("Delta = %v, want 0.14", r.Delta)
	}
	if r.Corr < 0.99 {
		t.Fatalf("Corr = %v, want near 1", r.Corr)
	}
	if r.VRF < 10 {
		t.Fatalf("VRF = %v, want large for near-perfectly correlated pairs", r.VRF)
	}
	if r.Lo > r.Delta || r.Hi < r.Delta || r.HalfWidth <= 0 {
		t.Fatalf("inconsistent CI: [%v, %v] around %v (hw %v)", r.Lo, r.Hi, r.Delta, r.HalfWidth)
	}
}

func TestPairedTDropsNaNPairs(t *testing.T) {
	nan := math.NaN()
	a := []float64{1, nan, 3, 4}
	b := []float64{2, 2, nan, 5}
	r, err := PairedT(a, b, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 2 || r.Dropped != 2 {
		t.Fatalf("N=%d Dropped=%d, want 2 and 2", r.N, r.Dropped)
	}
	if math.Abs(r.Delta-(-1)) > 1e-12 {
		t.Fatalf("Delta = %v, want -1", r.Delta)
	}
}

func TestPairedTTooFewPairs(t *testing.T) {
	if _, err := PairedT([]float64{1}, []float64{2}, 0.95); err == nil {
		t.Fatal("paired-t accepted a single pair")
	}
	nan := math.NaN()
	if _, err := PairedT([]float64{1, nan, nan}, []float64{2, 3, 4}, 0.95); err == nil {
		t.Fatal("paired-t accepted one complete pair out of three")
	}
	if _, err := PairedT(nil, nil, 0.95); err == nil {
		t.Fatal("paired-t accepted empty samples")
	}
	if _, err := PairedT([]float64{1, 2}, []float64{1}, 0.95); err == nil {
		t.Fatal("paired-t accepted mismatched lengths")
	}
	if _, err := PairedT([]float64{1, 2}, []float64{3, 4}, 1.0); err == nil {
		t.Fatal("paired-t accepted confidence level 1")
	}
}

func TestPairedTZeroVarianceDeltas(t *testing.T) {
	// Identical offset between the samples: every delta is exactly 0.25, so
	// the interval collapses to a point and the VRF is +Inf.
	a := []float64{1.25, 2.25, 3.25, 4.25}
	b := []float64{1.0, 2.0, 3.0, 4.0}
	r, err := PairedT(a, b, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if r.VarDelta != 0 {
		t.Fatalf("VarDelta = %v, want exactly 0", r.VarDelta)
	}
	if r.HalfWidth != 0 {
		t.Fatalf("HalfWidth = %v, want 0 for constant deltas", r.HalfWidth)
	}
	if !math.IsInf(r.VRF, 1) {
		t.Fatalf("VRF = %v, want +Inf", r.VRF)
	}
	if math.Abs(r.Delta-0.25) > 1e-12 {
		t.Fatalf("Delta = %v, want 0.25", r.Delta)
	}
	// Fully constant samples: no variance anywhere, correlation and VRF are
	// undefined, but the delta itself is still exact.
	c := []float64{7, 7, 7}
	d := []float64{5, 5, 5}
	r2, err := PairedT(c, d, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(r2.Corr) {
		t.Fatalf("Corr of constant samples = %v, want NaN", r2.Corr)
	}
	if !math.IsNaN(r2.VRF) {
		t.Fatalf("VRF with zero variance everywhere = %v, want NaN", r2.VRF)
	}
	if r2.Delta != 2 || r2.HalfWidth != 0 {
		t.Fatalf("Delta=%v HalfWidth=%v, want 2 and 0", r2.Delta, r2.HalfWidth)
	}
}

// TestCorrEdgeCases pins Corr2, the correlation PairedT reports: ±1 for
// perfectly (anti)correlated moments, and NaN when either variance
// vanishes (a constant sample has no correlation).
func TestCorrEdgeCases(t *testing.T) {
	if c := Corr2(4, 1, 2); math.Abs(c-1) > 1e-12 {
		t.Fatalf("Corr2 of proportional samples = %v, want 1", c)
	}
	if c := Corr2(1, 1, -1); math.Abs(c+1) > 1e-12 {
		t.Fatalf("Corr2 of reversed samples = %v, want -1", c)
	}
	if c := Corr2(0, 1, 0); !math.IsNaN(c) {
		t.Fatalf("Corr2 with a constant sample = %v, want NaN", c)
	}
	if c := Corr2(1, 0, 0); !math.IsNaN(c) {
		t.Fatalf("Corr2 with a constant second sample = %v, want NaN", c)
	}
}

func TestVarianceReductionFactor(t *testing.T) {
	if v := VarianceReductionFactor(2, 2, 1); v != 4 {
		t.Fatalf("VRF(2,2,1) = %v, want 4", v)
	}
	if v := VarianceReductionFactor(1, 1, 4); v != 0.5 {
		t.Fatalf("VRF(1,1,4) = %v, want 0.5 (CRN hurt)", v)
	}
	if v := VarianceReductionFactor(1, 1, 0); !math.IsInf(v, 1) {
		t.Fatalf("VRF with zero delta variance = %v, want +Inf", v)
	}
	if v := VarianceReductionFactor(0, 0, 0); !math.IsNaN(v) {
		t.Fatalf("VRF with no variance anywhere = %v, want NaN", v)
	}
}

func TestPrecisionMet(t *testing.T) {
	cases := []struct {
		name               string
		mean, hw, rel, abs float64
		want               bool
	}{
		{"relative met", 10, 0.5, 0.1, 0, true},
		{"relative missed", 10, 1.5, 0.1, 0, false},
		{"relative boundary", 10, 1.0, 0.1, 0, true},
		{"absolute met", 10, 0.01, 0, 0.02, true},
		{"absolute missed", 10, 0.05, 0, 0.02, false},
		{"either suffices", 0.001, 0.015, 0.1, 0.02, true},
		{"negative mean uses magnitude", -10, 0.5, 0.1, 0, true},
		{"no target requested", 10, 0.001, 0, 0, false},
		{"nan half-width", 10, math.NaN(), 0.1, 1, false},
	}
	for _, c := range cases {
		if got := PrecisionMet(c.mean, c.hw, c.rel, c.abs); got != c.want {
			t.Errorf("%s: PrecisionMet(%v, %v, %v, %v) = %v, want %v",
				c.name, c.mean, c.hw, c.rel, c.abs, got, c.want)
		}
	}
}

// TestPrecisionMetAtZeroMean pins the mean≈0 degradation of the relative
// rule: no positive half-width can satisfy rel·|0|, only an exact zero
// half-width does, and an absolute target rescues the case.
func TestPrecisionMetAtZeroMean(t *testing.T) {
	if PrecisionMet(0, 1e-300, 0.01, 0) {
		t.Fatal("relative rule satisfied at mean 0 with positive half-width")
	}
	if !PrecisionMet(0, 0, 0.01, 0) {
		t.Fatal("relative rule rejected an exactly-zero half-width at mean 0")
	}
	if !PrecisionMet(0, 1e-6, 0.01, 1e-5) {
		t.Fatal("absolute target did not rescue the mean-0 case")
	}
	if PrecisionMet(math.NaN(), 0.5, 0.01, 0) {
		t.Fatal("relative rule satisfied with NaN mean")
	}
}

// TestTQuantileExtremeTails exercises the inverse-t far into the tails,
// where the bracketing search must still converge: tiny tail probabilities,
// one degree of freedom (Cauchy, heavy tails), and large df (≈ normal).
func TestTQuantileExtremeTails(t *testing.T) {
	// df=1 is the Cauchy distribution: quantile(p) = tan(π(p−1/2)).
	for _, p := range []float64{0.999, 0.9999, 0.99999} {
		want := math.Tan(math.Pi * (p - 0.5))
		got := TQuantile(p, 1)
		if math.Abs(got-want)/want > 1e-6 {
			t.Errorf("TQuantile(%v, 1) = %v, want %v (Cauchy)", p, got, want)
		}
	}
	// Symmetry deep in the lower tail.
	if got, want := TQuantile(1e-5, 3), -TQuantile(1-1e-5, 3); math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Errorf("tail symmetry broken: %v vs %v", got, want)
	}
	// Large df converges to the normal quantile z₀.₉₉₉₉ = Φ⁻¹(0.9999).
	if got, want := TQuantile(0.9999, 1e6), 3.7190164854557084; math.Abs(got-want) > 1e-3 {
		t.Errorf("TQuantile(0.9999, 1e6) = %v, want ≈ %v", got, want)
	}
	// Round-trip through the CDF far out in the tail.
	for _, df := range []float64{1, 2, 5, 30} {
		q := TQuantile(0.99999, df)
		if p := TCDF(q, df); math.Abs(p-0.99999) > 1e-9 {
			t.Errorf("TCDF(TQuantile(0.99999, %v)) = %v", df, p)
		}
	}
	// Degenerate arguments.
	if !math.IsInf(TQuantile(1, 5), 1) || !math.IsInf(TQuantile(0, 5), -1) {
		t.Error("TQuantile at p∈{0,1} should be ±Inf")
	}
	if !math.IsNaN(TQuantile(0.5, 0)) {
		t.Error("TQuantile with df=0 should be NaN")
	}
}
