package mc

import (
	"errors"
	"fmt"
	"math"

	"ituaval/internal/san"
)

// poissonEps is the Poisson-window accuracy of every walk measure.
const poissonEps = 1e-12

// Walk is an incremental uniformization walk: the iterates v_k = v_0·P^k
// of one uniformized operator P — the plain one, or one that makes a set
// of states absorbing — from the initial distribution v_0. It records
// r·v_k at every step for a fixed set of reward vectors r and keeps only
// the latest iterate, so any instant-of-time or interval-average value at
// any horizon is a Poisson-weighted sum over the recorded scalars. The
// walk advances only when a horizon needs more steps than it has taken;
// a smaller horizon asked later costs no matvec. The iterates do not
// depend on the horizons asked, so a value is bit-identical whether a walk
// answers it first, last, or alone, and its only error is the Poisson
// window's poissonEps. The walk has no steady-state early exit: a
// step-difference test is not an error bound (DESIGN.md, "No
// steady-state exit").
//
// Memory: a walk keeps its reward vectors, one iterate (n floats) and the
// recorded scalars (one float per reward per step). The step operator
// (n + transitions floats) and its matvec worker pool exist only while an
// extension runs. A Walk is not safe for concurrent use.
type Walk struct {
	c         *CTMC
	absorbing []bool // nil for the plain operator
	lambda    float64
	rewards   [][]float64
	// recorded[j][k] = rewards[j]·v_k for k = 0..steps.
	recorded [][]float64
	v        []float64 // v_steps
	steps    int
	// visit, when set, sees every iterate the walk produces after v_0.
	visit func(k int, v []float64)
}

func (c *CTMC) newWalk(absorbing []bool, rewards ...[]float64) *Walk {
	w := &Walk{
		c:         c,
		absorbing: absorbing,
		lambda:    c.uniRate(absorbing),
		rewards:   rewards,
		recorded:  make([][]float64, len(rewards)),
		v:         c.InitialDistribution(),
	}
	w.record()
	return w
}

// RewardWalk returns a walk under the plain operator that records each of
// the reward functions fs; measure j of the walk is fs[j].
func (c *CTMC) RewardWalk(fs ...func(*san.State) float64) *Walk {
	rs := make([][]float64, len(fs))
	for j, f := range fs {
		rs[j] = c.RewardVector(f)
	}
	return c.newWalk(nil, rs...)
}

// FirstPassageWalk returns a walk under the operator that makes pred's
// states absorbing, recording the mass in them: its Instant(0, t) is
// P(pred(X_u) for some u <= t). States already satisfying pred at time 0
// count as absorbed.
func (c *CTMC) FirstPassageWalk(pred func(*san.State) bool) *Walk {
	ind := c.RewardVector(func(s *san.State) float64 {
		if pred(s) {
			return 1
		}
		return 0
	})
	bad := make([]bool, c.n)
	for i, x := range ind {
		bad[i] = x == 1
	}
	return c.newWalk(bad, ind)
}

// record appends r·v_steps for every reward and shows v_steps to visit.
// The rewards go in groups of up to four that share one pass over v_steps.
func (w *Walk) record() {
	for j := 0; j < len(w.rewards); j += 4 {
		g := w.rewards[j:min(j+4, len(w.rewards))]
		s := dots(w.v, g)
		for k := range g {
			w.recorded[j+k] = append(w.recorded[j+k], s[k])
		}
	}
	if w.visit != nil {
		w.visit(w.steps, w.v)
	}
}

// dots returns v·r for each of one to four reward vectors rs in one pass
// over v. Each sum adds its terms in index order, as dot does, so it has
// dot's bits. With fewer than four vectors the last one fills the spare
// accumulators, whose sums the caller drops.
func dots(v []float64, rs [][]float64) [4]float64 {
	r := func(k int) []float64 { return rs[min(k, len(rs)-1)] }
	r0, r1, r2, r3 := r(0)[:len(v)], r(1)[:len(v)], r(2)[:len(v)], r(3)[:len(v)]
	s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
	for i, x := range v {
		s0 += x * r0[i]
		s1 += x * r1[i]
		s2 += x * r2[i]
		s3 += x * r3[i]
	}
	return [4]float64{s0, s1, s2, s3}
}

// extend advances the walk to step to, building the step operator only
// when a step is due. This is the only stepping loop of the transient
// solver.
func (w *Walk) extend(to int) {
	if w.steps < to {
		op := w.c.uniOperator(w.absorbing, w.lambda)
		defer op.stop()
		next := make([]float64, len(w.v))
		for w.steps < to {
			op.apply(w.v, next)
			w.v, next = next, w.v
			w.steps++
			w.record()
		}
	}
}

// window returns the Poisson window of horizon t and advances the walk far
// enough to evaluate it.
func (w *Walk) window(t float64) (*poissonWindow, error) {
	win, err := newPoissonWindow(w.lambda*t, poissonEps)
	if err != nil {
		return nil, err
	}
	w.extend(win.last())
	return win, nil
}

// Instant returns E[r_j(X_t)] = Σ_k P(N(Λt)=k)·(r_j·v_k) for the walk's
// reward j. On a first-passage walk it is the absorbed mass at t.
func (w *Walk) Instant(j int, t float64) (float64, error) {
	if t < 0 {
		return 0, errors.New("mc: negative time")
	}
	win, err := w.window(t)
	if err != nil {
		return 0, fmt.Errorf("mc: value at t=%v: %w", t, err)
	}
	s := w.recorded[j]
	val := 0.0
	for k := win.left; k <= win.last(); k++ {
		val += win.prob(k) * s[k]
	}
	return val, nil
}

// IntervalAverage returns (1/t) E[∫₀ᵗ r_j(X_u) du] using the
// uniformization formula for accumulated rewards:
// E[∫₀ᵗ r du] = (1/Λ) Σ_k (r·v_k) P(N(Λt) > k).
func (w *Walk) IntervalAverage(j int, t float64) (float64, error) {
	if t <= 0 {
		return 0, errors.New("mc: non-positive interval")
	}
	win, err := w.window(t)
	if err != nil {
		return 0, fmt.Errorf("mc: interval average over [0,%v]: %w", t, err)
	}
	s := w.recorded[j]
	acc, cum := 0.0, 0.0
	// P(N > last) is zero within the window.
	for k := 0; k < win.last(); k++ {
		cum += win.prob(k)
		acc += s[k] * math.Max(0, 1-cum)
	}
	return acc / w.lambda / t, nil
}

// Transient returns the state distribution at time t, starting from the
// model's initial distribution, computed by uniformization with Fox–Glynn
// truncation: the Poisson-weighted sum of a walk's iterates.
func (c *CTMC) Transient(t float64) ([]float64, error) {
	if t < 0 {
		return nil, errors.New("mc: negative time")
	}
	w := c.newWalk(nil)
	win, err := newPoissonWindow(w.lambda*t, poissonEps)
	if err != nil {
		return nil, fmt.Errorf("mc: transient at t=%v: %w", t, err)
	}
	out := make([]float64, c.n)
	add := func(k int, v []float64) {
		if p := win.prob(k); p > 0 {
			for i := range v {
				out[i] += p * v[i]
			}
		}
	}
	add(0, w.v)
	w.visit = add
	w.extend(win.last())
	return out, nil
}

// TransientReward returns E[f(X_t)]: one measure of a one-shot walk.
func (c *CTMC) TransientReward(t float64, f func(*san.State) float64) (float64, error) {
	return c.RewardWalk(f).Instant(0, t)
}

// IntervalAverageReward returns (1/T) E[∫₀ᵀ f(X_u) du]: one measure of a
// one-shot walk.
func (c *CTMC) IntervalAverageReward(t float64, f func(*san.State) float64) (float64, error) {
	return c.RewardWalk(f).IntervalAverage(0, t)
}

// FirstPassageProb returns P(pred(X_u) for some u <= t): one measure of a
// one-shot first-passage walk.
func (c *CTMC) FirstPassageProb(t float64, pred func(*san.State) bool) (float64, error) {
	return c.FirstPassageWalk(pred).Instant(0, t)
}
