package mc

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ituaval/internal/san"
)

// ErrPoissonTruncation is returned when the Poisson weight window cannot
// reach the requested probability mass — the remaining terms underflow or
// the window would grow beyond any plausible size — so a uniformization
// result at the requested accuracy is not available. The old solver
// silently truncated in this situation; now the error carries through
// every Walk measure and so through Transient, TransientReward,
// IntervalAverageReward, and FirstPassageProb. The window is built before
// the walk advances, so a failed request leaves the walk as it was.
var ErrPoissonTruncation = errors.New("mc: Poisson window cannot reach the requested probability mass")

// poissonWindow holds the Fox–Glynn-style truncated Poisson(mu) weights:
// terms[i] ≈ P(N = left+i), computed by the stable two-sided recurrence
// from the mode (p(k+1) = p(k)·mu/(k+1) upward, p(k-1) = p(k)·k/mu
// downward) and extended greedily — one term at a time, largest next term
// first — until geometric bounds show the dropped tails are below eps of
// the retained weight. As in Fox–Glynn the raw weights are treated as
// relative (at large mu the mode term, a difference of huge near-canceling
// logarithms, carries a common relative bias far above eps) and the window
// is normalized by its total, so the retained terms sum to one. Left
// truncation matters at large mu (the uniformized step count is Λt): the
// weights below left underflow and their steps contribute nothing to the
// weighted sum, though the walk (Walk) still has to advance the DTMC
// through them.
type poissonWindow struct {
	left  int
	terms []float64
}

// windowGrowthCap bounds the window extension beyond the mode; reaching it
// means eps is unattainably small for this mu.
const windowGrowthCap = 10_000_000

func newPoissonWindow(mu, eps float64) (*poissonWindow, error) {
	// A non-finite mean has no mode (int(mu) is undefined): without this
	// check a NaN window grows to its cap and fails with a misleading
	// ErrPoissonTruncation.
	if math.IsNaN(mu) || math.IsInf(mu, 0) {
		return nil, errors.New("mc: non-finite horizon")
	}
	if mu < 0 {
		panic("mc: negative Poisson mean")
	}
	if mu == 0 {
		return &poissonWindow{left: 0, terms: []float64{1}}, nil
	}
	mode := int(mu)
	lg, _ := math.Lgamma(float64(mode + 1))
	pMode := math.Exp(-mu + float64(mode)*math.Log(mu) - lg)
	if pMode == 0 {
		return nil, fmt.Errorf("%w: mode term underflows at mu=%g", ErrPoissonTruncation, mu)
	}
	lo, hi := mode, mode
	pLo, pHi := pMode, pMode
	mass := pMode
	// left side is collected in descending-k order and reversed at the end.
	leftRev := []float64(nil)
	right := []float64(nil)
	for {
		nextLo := 0.0
		if lo > 0 {
			nextLo = pLo * float64(lo) / mu
		}
		nextHi := pHi * mu / float64(hi+1)
		// Terms decay at least geometrically away from the mode, so each
		// dropped tail is bounded by its next term times the geometric
		// ratio's closed form: Σ_{j<lo} p(j) ≤ nextLo/(1-(lo-1)/mu) and
		// Σ_{j>hi} p(j) ≤ nextHi/(1-mu/(hi+2)). Underflowed sides (next
		// term exactly 0) contribute a zero bound: the true mass beyond
		// the underflow point is below 10^-300 of the retained weight.
		tail := 0.0
		if nextLo > 0 {
			tail += nextLo * mu / (mu - float64(lo-1))
		}
		if nextHi > 0 {
			tail += nextHi / (1 - mu/float64(hi+2))
		}
		if tail <= eps*mass {
			break
		}
		if nextLo >= nextHi {
			lo--
			pLo = nextLo
			leftRev = append(leftRev, pLo)
			mass += pLo
		} else {
			hi++
			if hi > mode+windowGrowthCap {
				return nil, fmt.Errorf("%w: window exceeds %d terms at mu=%g (eps=%g)",
					ErrPoissonTruncation, windowGrowthCap, mu, eps)
			}
			pHi = nextHi
			right = append(right, pHi)
			mass += pHi
		}
	}
	terms := make([]float64, 0, len(leftRev)+1+len(right))
	for i := len(leftRev) - 1; i >= 0; i-- {
		terms = append(terms, leftRev[i])
	}
	terms = append(terms, pMode)
	terms = append(terms, right...)
	// Fox–Glynn normalization: the common relative bias of the recurrence
	// divides out, leaving the retained weights summing to one.
	for i := range terms {
		terms[i] /= mass
	}
	return &poissonWindow{left: lo, terms: terms}, nil
}

// prob returns P(N = k) within the window, 0 outside it.
func (w *poissonWindow) prob(k int) float64 {
	i := k - w.left
	if i < 0 || i >= len(w.terms) {
		return 0
	}
	return w.terms[i]
}

// last is the highest k carrying retained mass.
func (w *poissonWindow) last() int { return w.left + len(w.terms) - 1 }

// uniStep is the one-step operator of the uniformized DTMC with every
// probability precomputed: out[i] = stay[i]·v[i] + Σ_k prob[k]·v[src[k]]
// over state i's incoming transitions, sources ascending, in the chain's
// sliced layout (CTMC, SELL-4). A full chunk runs its four rows in
// lockstep, one accumulator each; a tail chunk runs row by row. Either
// way each row adds its terms in the same fixed order, so results are
// bit-identical at every worker count. The padding entries add
// +0·v[i] = +0 to an accumulator that is never negative, −0 or NaN (every
// probability and every iterate entry is ≥ 0), so they change no bit.
//
// Large chains run the matvec over a static partition of the chunks
// balanced by entry count (a chunk's cost is its padded gather length,
// not its row count), executed by a pool of workers started on the first
// apply and released by stop — the quotient chains the lumped generator
// produces run tens of thousands of steps, and respawning goroutines per
// step is measurable at that scale. An operator lives for one extension
// of a Walk (or one SteadyState call), so no pool outlives the call that
// needed it. Callers that obtain an operator must stop() it.
type uniStep struct {
	n       int
	stay    []float64
	off     []int32 // chunk offsets into cols and prob (CTMC.sellOff)
	cols    []int32
	prob    []float64
	workers int

	// blocks is the chunk partition: block b covers chunks
	// [blocks[b], blocks[b+1]). Nil when the chain is solved sequentially.
	blocks []int32

	jobs   chan int // nil while no pool runs
	jobWG  sync.WaitGroup
	poolWG sync.WaitGroup // running pool workers
	v, out []float64      // current operands, set before jobs are posted
}

// matvecs counts operator applications, for tests that pin how many
// uniformization steps a set of measures costs.
var matvecs atomic.Int64

// parallelSolveMin is the problem size (states + transitions) below which
// the chunk-parallel matvec is not worth its per-step goroutine handoff.
// It is the measured crossover of the sliced kernel at two workers
// (DESIGN.md, "Storage").
const parallelSolveMin = 1 << 16

// makeBlocks cuts the chunks into nBlocks contiguous blocks of roughly
// equal work, where a chunk costs its row count plus its padded entries.
func (s *uniStep) makeBlocks(nBlocks int) {
	nch := len(s.off) - 1
	total := s.n + len(s.cols)
	s.blocks = make([]int32, 1, nBlocks+1)
	work, cut := 0, 1
	for ch := 0; ch < nch && cut < nBlocks; ch++ {
		work += chunkRows(s.n, ch) + int(s.off[ch+1]-s.off[ch])
		if work*nBlocks >= total*cut {
			s.blocks = append(s.blocks, int32(ch+1))
			cut++
		}
	}
	s.blocks = append(s.blocks, int32(nch))
}

func (s *uniStep) startPool() {
	s.jobs = make(chan int)
	for w := 1; w < len(s.blocks)-1; w++ {
		s.poolWG.Add(1)
		go func(jobs <-chan int) {
			defer s.poolWG.Done()
			for b := range jobs {
				s.applyRange(s.v, s.out, int(s.blocks[b]), int(s.blocks[b+1]))
				s.jobWG.Done()
			}
		}(s.jobs)
	}
}

// stop releases the worker pool and returns once every worker has exited.
// Safe to call whether or not the pool started; a later apply starts a
// fresh pool.
func (s *uniStep) stop() {
	if s.jobs != nil {
		close(s.jobs)
		s.jobs = nil
		s.poolWG.Wait()
	}
}

func (s *uniStep) apply(v, out []float64) {
	matvecs.Add(1)
	if s.blocks == nil {
		s.applyRange(v, out, 0, len(s.off)-1)
		return
	}
	if s.jobs == nil {
		s.startPool()
	}
	s.v, s.out = v, out
	nb := len(s.blocks) - 1
	s.jobWG.Add(nb - 1)
	for b := 1; b < nb; b++ {
		s.jobs <- b
	}
	s.applyRange(v, out, int(s.blocks[0]), int(s.blocks[1]))
	s.jobWG.Wait()
}

// applyRange computes the rows of chunks [lo, hi).
func (s *uniStep) applyRange(v, out []float64, lo, hi int) {
	for ch := lo; ch < hi; ch++ {
		i := ch * sellC
		cols, prob := s.cols[s.off[ch]:s.off[ch+1]], s.prob[s.off[ch]:s.off[ch+1]]
		if h := chunkRows(s.n, ch); h < sellC {
			for r := 0; r < h; r++ {
				acc := s.stay[i+r] * v[i+r]
				for k := r; k < len(cols); k += h {
					acc += prob[k] * v[cols[k]]
				}
				out[i+r] = acc
			}
			continue
		}
		a0 := s.stay[i] * v[i]
		a1 := s.stay[i+1] * v[i+1]
		a2 := s.stay[i+2] * v[i+2]
		a3 := s.stay[i+3] * v[i+3]
		for k := 0; k+3 < len(cols); k += sellC {
			a0 += prob[k] * v[cols[k]]
			a1 += prob[k+1] * v[cols[k+1]]
			a2 += prob[k+2] * v[cols[k+2]]
			a3 += prob[k+3] * v[cols[k+3]]
		}
		out[i], out[i+1], out[i+2], out[i+3] = a0, a1, a2, a3
	}
}

// uniRate is the uniformization rate Λ: 1.02× the largest exit rate
// (strictly above every exit rate, so each state keeps a self-loop and the
// DTMC is aperiodic). When bad is non-nil, the maximum is taken over the
// non-bad states only, since bad states absorb.
func (c *CTMC) uniRate(bad []bool) float64 {
	lambda := 0.0
	for i, e := range c.exit {
		if (bad == nil || !bad[i]) && e > lambda {
			lambda = e
		}
	}
	lambda *= 1.02
	if lambda == 0 {
		lambda = 1 // absorbing-only chain: identity steps
	}
	return lambda
}

// uniOperator builds the uniformized step operator at rate lambda
// (uniRate). When bad is non-nil, states marked bad absorb: their mass
// stays put and their outgoing probabilities are zeroed.
func (c *CTMC) uniOperator(bad []bool, lambda float64) *uniStep {
	s := &uniStep{
		n:       c.n,
		stay:    make([]float64, c.n),
		off:     c.sellOff,
		cols:    c.sellCols,
		prob:    make([]float64, len(c.sellRates)),
		workers: c.workers,
	}
	for i := 0; i < c.n; i++ {
		if bad != nil && bad[i] {
			s.stay[i] = 1
		} else {
			s.stay[i] = 1 - c.exit[i]/lambda
		}
	}
	for k, src := range c.sellCols {
		if bad != nil && bad[src] {
			s.prob[k] = 0
		} else {
			s.prob[k] = c.sellRates[k] / lambda
		}
	}
	if s.workers > 1 && s.n+c.NumTransitions() >= parallelSolveMin {
		s.makeBlocks(s.workers)
	}
	return s
}

// Iterative solves (SteadyState, Absorption, ExpectedRewardToAbsorption)
// stop once a sweep changes the iterate by less than solveTol (scaled by
// 1 + the largest value in the time and reward sweeps) and fail after
// solveMaxIter sweeps.
const (
	solveTol     = 1e-12
	solveMaxIter = 1_000_000
)

// SteadyState returns the stationary distribution by power iteration on the
// uniformized DTMC. It returns an error if the iteration does not converge;
// for chains with transient states mass settles on the recurrent classes
// reachable from the initial distribution.
func (c *CTMC) SteadyState() ([]float64, error) {
	v := c.InitialDistribution()
	op := c.uniOperator(nil, c.uniRate(nil))
	defer op.stop()
	next := make([]float64, len(v))
	for iter := 0; iter < solveMaxIter; iter++ {
		op.apply(v, next)
		diff := 0.0
		for i := range v {
			diff += math.Abs(next[i] - v[i])
		}
		v, next = next, v
		if diff < solveTol {
			return v, nil
		}
	}
	return nil, fmt.Errorf("mc: steady state did not converge in %d iterations", solveMaxIter)
}

// SteadyStateReward returns the stationary expectation of f.
func (c *CTMC) SteadyStateReward(f func(*san.State) float64) (float64, error) {
	p, err := c.SteadyState()
	if err != nil {
		return 0, err
	}
	return dot(p, c.RewardVector(f)), nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
