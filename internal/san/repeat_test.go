package san

import (
	"math"
	"testing"

	"ituaval/internal/rng"
)

// addLoop is AddRepeated's reference: n additions, one by one.
func addLoop(sum, x float64, n int) float64 {
	for ; n > 0; n-- {
		sum += x
	}
	return sum
}

// TestAddRepeatedMatchesLoop compares AddRepeated with n one-by-one
// additions bit for bit: on the initial probabilities of the placement
// shapes, on random sums and addends across scales, and on addends that
// are an odd or even integer and a half ulp of the sum's binade, the ties
// that rounding to even resolves differently from step to step.
func TestAddRepeatedMatchesLoop(t *testing.T) {
	check := func(sum, x float64, n int) {
		t.Helper()
		got, want := AddRepeated(sum, x, n), addLoop(sum, x, n)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AddRepeated(%v, %v, %d) = %v (%016x), want %v (%016x)",
				sum, x, n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	fullPerm := func(n int) float64 {
		p := 1.0
		for m := n; m >= 2; m-- {
			p *= 1 / float64(m)
		}
		return p
	}
	for _, x := range []float64{fullPerm(6) * fullPerm(6), fullPerm(4) * fullPerm(4) / 16, fullPerm(12), 1.0 / 3, 0.1, 3.7} {
		for _, n := range []int{0, 1, 2, 3, 119, 120, 720, 518_400, 1_000_003} {
			check(x, x, n)
			check(0, x, n)
			check(0.3, x, n)
		}
	}
	s := rng.New(21)
	for i := 0; i < 2000; i++ {
		x := math.Ldexp(s.Float64()+0.5, -s.Intn(60))
		sum := math.Ldexp(s.Float64(), 20-s.Intn(60))
		check(sum, x, s.Intn(5000))
	}
	for _, base := range []float64{1, 1.5, 0x1p40, 0x1.fffffffffff00p0} {
		_, exp := math.Frexp(base)
		u := math.Ldexp(1, exp-53)
		for _, units := range []float64{0.5, 1.5, 2.5, 3.5, 6.5, 1, 2, 7, 0.49, 0.51} {
			for _, n := range []int{1, 2, 3, 10, 1000, 100_000} {
				check(base, units*u, n)
				check(base+u, units*u, n)
			}
		}
	}
	if got := AddRepeated(1, 1e-300, math.MaxInt); got != 1 {
		t.Fatalf("a negligible addend moved the sum to %v", got)
	}
}
