package mc

import (
	"errors"
	"fmt"
	"math"

	"ituaval/internal/san"
)

// AbsorptionResult summarizes the absorbing behaviour of the chain from
// its initial distribution.
type AbsorptionResult struct {
	// Prob is the total probability of eventual absorption (1 for chains
	// whose recurrent states are all absorbing).
	Prob float64
	// MeanTime is the expected time to absorption, conditional on starting
	// in the transient class (infinite if some recurrent non-absorbing
	// class is reachable; +Inf is returned in that case).
	MeanTime float64
	// AbsorbingStates is the number of absorbing states found.
	AbsorbingStates int
}

// Absorption computes the probability of and mean time to absorption,
// treating every state with no outgoing transitions as absorbing. The
// linear systems are solved by Gauss–Seidel sweeps over the CSR rows
// (columns ascending, so updated values propagate within a sweep) until
// they change by less than solveTol.
func (c *CTMC) Absorption() (AbsorptionResult, error) {
	n := c.n
	if n == 0 {
		return AbsorptionResult{}, errors.New("mc: empty chain")
	}
	absorbing := make([]bool, n)
	count := 0
	for i := 0; i < n; i++ {
		if c.exit[i] == 0 {
			absorbing[i] = true
			count++
		}
	}
	if count == 0 {
		return AbsorptionResult{AbsorbingStates: 0, Prob: 0, MeanTime: math.Inf(1)}, nil
	}

	// h[i] = P(absorbed | start i): h = 1 on absorbing states;
	// h[i] = Σ_j (q_ij / E_i) h[j] elsewhere. Gauss–Seidel iteration.
	h := make([]float64, n)
	for i := range h {
		if absorbing[i] {
			h[i] = 1
		}
	}
	for iter := 0; iter < solveMaxIter; iter++ {
		diff := 0.0
		for i := 0; i < n; i++ {
			if absorbing[i] {
				continue
			}
			sum := 0.0
			for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
				sum += c.rates[k] * h[c.cols[k]]
			}
			v := sum / c.exit[i]
			if d := math.Abs(v - h[i]); d > diff {
				diff = d
			}
			h[i] = v
		}
		if diff < solveTol {
			break
		}
		if iter == solveMaxIter-1 {
			return AbsorptionResult{}, fmt.Errorf("mc: absorption probability did not converge in %d iterations", solveMaxIter)
		}
	}

	// t[i] = E[time to absorption | start i] (finite only if h[i] = 1):
	// t[i] = 1/E_i + Σ_j (q_ij / E_i) t[j].
	t := make([]float64, n)
	finite := true
	for i := range h {
		if !absorbing[i] && h[i] < 1-1e-9 {
			finite = false
			break
		}
	}
	if finite {
		for iter := 0; iter < solveMaxIter; iter++ {
			diff := 0.0
			for i := 0; i < n; i++ {
				if absorbing[i] {
					continue
				}
				sum := 1.0
				for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
					sum += c.rates[k] * t[c.cols[k]]
				}
				v := sum / c.exit[i]
				if d := math.Abs(v - t[i]); d > diff {
					diff = d
				}
				t[i] = v
			}
			// Relative tolerance keeps long-time chains convergent.
			maxT := 0.0
			for _, v := range t {
				if v > maxT {
					maxT = v
				}
			}
			if diff < solveTol*(1+maxT) {
				break
			}
			if iter == solveMaxIter-1 {
				return AbsorptionResult{}, fmt.Errorf("mc: mean absorption time did not converge in %d iterations", solveMaxIter)
			}
		}
	}

	res := AbsorptionResult{AbsorbingStates: count}
	for id, p0 := range c.initDist {
		res.Prob += p0 * h[id]
		if finite {
			res.MeanTime += p0 * t[id]
		}
	}
	if !finite {
		res.MeanTime = math.Inf(1)
	}
	return res, nil
}

// ExpectedRewardToAbsorption returns E[∫₀^T_abs f(X_u) du] for an absorbing
// chain, by the same Gauss–Seidel scheme with per-state reward f. It
// returns an error if absorption is not almost sure.
func (c *CTMC) ExpectedRewardToAbsorption(f func(*san.State) float64) (float64, error) {
	abs, err := c.Absorption()
	if err != nil {
		return 0, err
	}
	if abs.Prob < 1-1e-9 {
		return 0, fmt.Errorf("mc: absorption probability %v < 1; accumulated reward diverges", abs.Prob)
	}
	r := c.RewardVector(f)
	n := c.n
	t := make([]float64, n)
	for iter := 0; iter < solveMaxIter; iter++ {
		diff := 0.0
		for i := 0; i < n; i++ {
			if c.exit[i] == 0 {
				continue
			}
			sum := r[i]
			for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
				sum += c.rates[k] * t[c.cols[k]]
			}
			v := sum / c.exit[i]
			if d := math.Abs(v - t[i]); d > diff {
				diff = d
			}
			t[i] = v
		}
		maxT := 0.0
		for _, v := range t {
			if math.Abs(v) > maxT {
				maxT = math.Abs(v)
			}
		}
		if diff < solveTol*(1+maxT) {
			break
		}
		if iter == solveMaxIter-1 {
			return 0, fmt.Errorf("mc: reward to absorption did not converge in %d iterations", solveMaxIter)
		}
	}
	out := 0.0
	for id, p0 := range c.initDist {
		out += p0 * t[id]
	}
	return out, nil
}
