package stats

import (
	"math"
	"testing"
	"testing/quick"

	"ituaval/internal/rng"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v ± %v", what, got, want, tol)
	}
}

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if !math.IsNaN(a.Mean()) || !math.IsNaN(a.Min()) {
		t.Fatal("empty accumulator should report NaN")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	almost(t, a.Mean(), 5, 1e-12, "mean")
	almost(t, a.Variance(), 32.0/7, 1e-12, "variance")
	almost(t, a.Min(), 2, 0, "min")
	almost(t, a.Max(), 9, 0, "max")
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
}

func TestAccumulatorMergeMatchesSequential(t *testing.T) {
	s := rng.New(1)
	var whole, left, right Accumulator
	for i := 0; i < 1000; i++ {
		x := s.Float64()*10 - 5
		whole.Add(x)
		if i < 400 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(&right)
	almost(t, left.Mean(), whole.Mean(), 1e-10, "merged mean")
	almost(t, left.Variance(), whole.Variance(), 1e-9, "merged variance")
	almost(t, left.Min(), whole.Min(), 0, "merged min")
	almost(t, left.Max(), whole.Max(), 0, "merged max")
	if left.N() != whole.N() {
		t.Fatalf("merged N = %d want %d", left.N(), whole.N())
	}
}

func TestAccumulatorMergeEmpty(t *testing.T) {
	var a, b Accumulator
	a.Add(1)
	a.Add(3)
	a.Merge(&b) // merging empty is a no-op
	almost(t, a.Mean(), 2, 1e-12, "mean after empty merge")
	b.Merge(&a) // merging into empty copies
	almost(t, b.Mean(), 2, 1e-12, "mean after merge into empty")
}

func TestHalfWidthKnownValue(t *testing.T) {
	// n=10 samples with stddev s: hw95 = t_{0.975,9} * s/sqrt(10),
	// t_{0.975,9} = 2.262157...
	var a Accumulator
	for i := 0; i < 10; i++ {
		a.Add(float64(i))
	}
	want := 2.2621571628 * a.StdErr()
	almost(t, a.HalfWidth(0.95), want, 1e-6, "hw95")
}

func TestCICoverage(t *testing.T) {
	// 95% CIs over repeated experiments should cover the true mean ~95% of
	// the time. 400 experiments of 30 exponential samples; allow 90–99%.
	root := rng.New(2024)
	covered := 0
	const experiments = 400
	for e := 0; e < experiments; e++ {
		s := root.Derive(uint64(e))
		var a Accumulator
		for i := 0; i < 30; i++ {
			a.Add(s.Expo(2))
		}
		hw := a.HalfWidth(0.95)
		if math.Abs(a.Mean()-0.5) <= hw {
			covered++
		}
	}
	frac := float64(covered) / experiments
	if frac < 0.90 || frac > 0.995 {
		t.Fatalf("95%% CI coverage was %v", frac)
	}
}

func TestQuickAccumulatorMeanWithinRange(t *testing.T) {
	f := func(xs []float64) bool {
		var a Accumulator
		anyFinite := false
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				continue // avoid float64 overflow in delta products
			}
			anyFinite = true
			a.Add(x)
		}
		if !anyFinite {
			return true
		}
		return a.Mean() >= a.Min()-1e-9 && a.Mean() <= a.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickVarianceNonNegative(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		var a Accumulator
		for _, r := range raw {
			a.Add(float64(r))
		}
		return a.Variance() >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
