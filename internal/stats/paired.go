package stats

import (
	"fmt"
	"math"
)

// PairedResult summarizes a paired-t comparison of two samples observed
// under common random numbers: per-pair deltas d_i = a_i − b_i, their mean,
// a Student-t confidence interval on that mean, the pairwise correlation,
// and the variance-reduction factor relative to independent sampling of the
// same two configurations.
type PairedResult struct {
	N       int64 // complete pairs used
	Dropped int   // pairs discarded because either member was NaN

	MeanA, MeanB float64
	Delta        float64 // mean of a_i − b_i
	VarA, VarB   float64
	VarDelta     float64

	Level     float64 // confidence level of the interval (e.g. 0.95)
	HalfWidth float64 // t half-width of the CI on Delta
	Lo, Hi    float64 // Delta ∓ HalfWidth

	Corr float64 // sample correlation between a_i and b_i
	VRF  float64 // (VarA + VarB) / VarDelta
}

// PairedT computes the paired-t comparison of equal-length samples a and b,
// where a[i] and b[i] were observed on the same random-number stream
// (common random numbers). Pairs in which either member is NaN — a failed
// or skipped replication — are dropped and counted in Dropped. It needs at
// least two complete pairs to form a confidence interval.
func PairedT(a, b []float64, level float64) (PairedResult, error) {
	var r PairedResult
	if len(a) != len(b) {
		return r, fmt.Errorf("stats: paired samples have different lengths %d and %d", len(a), len(b))
	}
	if level <= 0 || level >= 1 {
		return r, fmt.Errorf("stats: confidence level %v outside (0,1)", level)
	}
	r.Level = level

	// Online moments over complete pairs: means, M2s, and the co-moment.
	var n int64
	var meanA, meanB, mA2, mB2, cAB float64
	var meanD, mD2 float64
	for i := range a {
		x, y := a[i], b[i]
		if math.IsNaN(x) || math.IsNaN(y) {
			r.Dropped++
			continue
		}
		n++
		dx := x - meanA
		meanA += dx / float64(n)
		dy := y - meanB
		meanB += dy / float64(n)
		mA2 += dx * (x - meanA)
		mB2 += dy * (y - meanB)
		cAB += dx * (y - meanB)
		d := x - y
		dd := d - meanD
		meanD += dd / float64(n)
		mD2 += dd * (d - meanD)
	}
	r.N = n
	if n < 2 {
		return r, fmt.Errorf("stats: paired-t needs at least 2 complete pairs, got %d", n)
	}
	r.MeanA, r.MeanB = meanA, meanB
	r.Delta = meanD
	nf := float64(n - 1)
	r.VarA = mA2 / nf
	r.VarB = mB2 / nf
	r.VarDelta = mD2 / nf
	r.Corr = Corr2(mA2/nf, mB2/nf, cAB/nf)
	r.VRF = VarianceReductionFactor(r.VarA, r.VarB, r.VarDelta)

	t := TQuantile(1-(1-level)/2, float64(n-1))
	r.HalfWidth = t * math.Sqrt(r.VarDelta/float64(n))
	r.Lo, r.Hi = r.Delta-r.HalfWidth, r.Delta+r.HalfWidth
	return r, nil
}

// Corr2 forms a correlation from variances and a covariance, returning NaN
// when either variance vanishes (a constant sample has no correlation).
func Corr2(varX, varY, cov float64) float64 {
	if varX <= 0 || varY <= 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(varX*varY)
}

// VarianceReductionFactor returns the factor by which pairing shrank the
// variance of the difference estimator: the variance an independent-streams
// design would give (varA + varB) divided by the paired variance varDelta.
// A factor above 1 means common random numbers helped; it is +Inf when the
// paired deltas are exactly constant, and NaN when both designs have zero
// variance.
func VarianceReductionFactor(varA, varB, varDelta float64) float64 {
	indep := varA + varB
	if varDelta <= 0 {
		if indep > 0 {
			return math.Inf(1)
		}
		return math.NaN()
	}
	return indep / varDelta
}

// PrecisionMet reports whether a confidence half-width hw meets the
// requested precision for an estimate with the given mean. A target of 0
// means "not requested"; when both targets are set, meeting either
// suffices. The relative rule compares hw against rel·|mean|; at mean ≈ 0
// that rule is unsatisfiable by any positive half-width, so it degrades to
// requiring hw == 0 — callers estimating quantities that can vanish should
// set an absolute target as well. A NaN half-width (n < 2) never meets any
// target.
func PrecisionMet(mean, hw, rel, abs float64) bool {
	if math.IsNaN(hw) {
		return false
	}
	if abs > 0 && hw <= abs {
		return true
	}
	if rel > 0 {
		if am := math.Abs(mean); am > 0 && !math.IsNaN(am) {
			return hw <= rel*am
		}
		return hw == 0
	}
	return false
}
