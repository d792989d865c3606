package stats

import "math"

// Special functions needed by the Student-t routines. The incomplete beta
// function follows the classic continued-fraction form (Numerical Recipes
// style) with double-precision tolerances.

// LogBeta returns log B(a, b).
func LogBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	bt := math.Exp(a*math.Log(x) + b*math.Log(1-x) - LogBeta(a, b))
	if x < (a+1)/(a+b+2) {
		return bt * betaCF(a, b, x) / a
	}
	return 1 - bt*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// using the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// TCDF returns the Student-t distribution function with nu degrees of
// freedom at x.
func TCDF(x, nu float64) float64 {
	if math.IsInf(x, 1) {
		return 1
	}
	if math.IsInf(x, -1) {
		return 0
	}
	p := 0.5 * RegIncBeta(nu/2, 0.5, nu/(nu+x*x))
	if x > 0 {
		return 1 - p
	}
	return p
}

// TQuantile returns the p-quantile of the Student-t distribution with nu
// degrees of freedom, for p in (0, 1).
func TQuantile(p, nu float64) float64 {
	if p <= 0 || p >= 1 {
		if p == 0 {
			return math.Inf(-1)
		}
		if p == 1 {
			return math.Inf(1)
		}
		return math.NaN()
	}
	if nu <= 0 {
		return math.NaN()
	}
	// Symmetric: solve for p >= 0.5 and mirror.
	if p < 0.5 {
		return -TQuantile(1-p, nu)
	}
	// Bracket then bisect; the t CDF is monotone.
	lo, hi := 0.0, 1.0
	for TCDF(hi, nu) < p {
		hi *= 2
		if hi > 1e9 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if TCDF(mid, nu) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2
}
