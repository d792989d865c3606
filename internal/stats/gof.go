package stats

import (
	"math"
	"sort"
)

// KSStatistic returns the one-sample Kolmogorov–Smirnov statistic
// D = sup |F_n(x) - F(x)| for the sample xs against the hypothesized CDF.
func KSStatistic(xs []float64, cdf func(float64) float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	d := 0.0
	for i, x := range s {
		f := cdf(x)
		lo := math.Abs(f - float64(i)/n)
		hi := math.Abs(float64(i+1)/n - f)
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return d
}

// KSPValue returns the asymptotic p-value for a one-sample KS statistic d
// with sample size n, using the Kolmogorov distribution series with the
// standard finite-n correction.
func KSPValue(d float64, n int) float64 {
	if n <= 0 || math.IsNaN(d) {
		return math.NaN()
	}
	if d <= 0 {
		return 1
	}
	sqrtN := math.Sqrt(float64(n))
	lambda := (sqrtN + 0.12 + 0.11/sqrtN) * d
	// Q_KS(λ) = 2 Σ_{j≥1} (-1)^{j-1} e^{-2 j² λ²}
	sum := 0.0
	sign := 1.0
	for j := 1; j <= 100; j++ {
		term := math.Exp(-2 * float64(j*j) * lambda * lambda)
		sum += sign * term
		if term < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
