package san

import "math"

// Enumerable random choices. Gate effects and init hooks that need
// randomness historically called ctx.Rand directly, which is fine for
// simulation but makes the model analytically unsolvable: the numerical
// solver passes a nil stream and any draw panics. The Context methods in
// this file are the solvable alternative: in simulation they delegate to
// ctx.Rand with exactly the draw sequence the direct calls made (so
// trajectories are bit-identical and no golden result moves), while under
// the analytic Resolver every alternative is explored as a separate branch
// with its probability, turning "pick a random qualifying domain" into an
// exact probabilistic transition.

// Choose returns an index in [0, n), each equally likely. In simulation it
// draws ctx.Rand.Choose(n); under enumeration every index is a branch of
// probability 1/n. It panics if n is not positive.
func (ctx *Context) Choose(n int) int {
	if ctx.enum != nil {
		return ctx.enum.take(n, nil)
	}
	return ctx.Rand.Choose(n)
}

// ChooseWeighted returns an index distributed according to the (not
// necessarily normalized) weights. In simulation it draws
// ctx.Rand.Category(w); under enumeration every positive-weight index is a
// branch of probability w[i]/Σw. It panics if no weight is positive or any
// is negative, matching Category.
func (ctx *Context) ChooseWeighted(w []float64) int {
	if ctx.enum != nil {
		return ctx.enum.take(len(w), w)
	}
	return ctx.Rand.Category(w)
}

// Permute fills p with a uniformly random permutation of 0..len(p)-1 of
// which the caller reads only the first k positions. In simulation it is
// exactly ctx.Rand.Perm(p), whatever k is, so no random stream moves.
//
// Under enumeration only the ordered k-prefixes are branches: a forward
// Fisher–Yates over positions 0..t-1, t = min(k, len(p)-1), makes each
// prefix exactly once, and the positions past it keep one of the full
// permutations sharing it. Each branch stands for the m = (n-t)! full
// permutations with its prefix: it multiplies the remaining factors
// 1/(n-t), …, 1/2 into its probability, so the probability has the bits
// of one full permutation's product 1/n·1/(n-1)·…·1/2 taken in that
// order, and its multiplicity grows m-fold. The resolver hands the
// multiplicity to its visitor, which adds the probability once per full
// permutation. A multiplicity that overflows int fails the resolution.
func (ctx *Context) Permute(p []int, k int) {
	if ctx.enum == nil {
		ctx.Rand.Perm(p)
		return
	}
	n := len(p)
	for i := range p {
		p[i] = i
	}
	t := max(0, min(k, n-1))
	for i := 0; i < t; i++ {
		j := i + ctx.enum.take(n-i, nil)
		p[i], p[j] = p[j], p[i]
	}
	for m := n - t; m >= 2; m-- {
		ctx.enum.fold(m)
	}
}

// choicePoint records one decision made while executing an effect under
// enumeration: which alternative was taken, how many there were, and, for
// a weighted choice, where its n weights start in the chooser's weight
// buffer, so the driver can fork the remaining alternatives afterwards.
type choicePoint struct {
	taken    int
	n        int
	weighted bool
	wOff     int
}

// enumChooser implements script-replay enumeration of an effect's choice
// tree. An execution replays a prefix of decisions (script) and, past the
// script, takes the first enumerable alternative at each fresh choice
// point; the driver then re-executes the effect once per untaken
// alternative of every fresh point. prob accumulates the probability of
// the decisions along the way. mult counts the full branches the
// execution stands for: it starts at the multiplicity of the path that
// led to the firing and grows where Permute folds the alternatives its
// caller never reads into one branch; overflow records a product past
// the int range.
type enumChooser struct {
	script   []int
	path     []choicePoint
	weights  []float64 // copies of the weighted choices' weights, in path order
	prob     float64
	mult     int
	overflow bool
}

func (e *enumChooser) reset(script []int, mult int) {
	e.script = script
	e.path = e.path[:0]
	e.weights = e.weights[:0]
	e.prob = 1
	e.mult = mult
	e.overflow = false
}

// fold makes the execution stand for all m alternatives of a uniform
// choice the caller never tells apart: the probability takes the factor
// 1/m of any one of them, as take would, and the multiplicity grows
// m-fold.
func (e *enumChooser) fold(m int) {
	e.prob *= 1 / float64(m)
	if e.mult > math.MaxInt/m {
		e.overflow = true
		return
	}
	e.mult *= m
}

// weight returns alternative alt's weight at the weighted choice point cp.
func (e *enumChooser) weight(cp choicePoint, alt int) float64 {
	return e.weights[cp.wOff+alt]
}

// take records one choice among n alternatives (weighted by w when
// non-nil) and returns the alternative this execution follows.
func (e *enumChooser) take(n int, w []float64) int {
	if n <= 0 {
		panic("san: enumerable choice over an empty alternative set")
	}
	idx := 0
	if len(e.path) < len(e.script) {
		idx = e.script[len(e.path)]
	} else if w != nil {
		idx = -1
		for i, wi := range w {
			if wi > 0 {
				idx = i
				break
			}
		}
	}
	cp := choicePoint{taken: idx, n: n}
	p := 1 / float64(n)
	if w != nil {
		total := 0.0
		for _, wi := range w {
			if wi < 0 || wi != wi {
				panic("san: negative or NaN weight in enumerable choice")
			}
			total += wi
		}
		if total <= 0 || idx < 0 {
			panic("san: enumerable weighted choice with non-positive total weight")
		}
		p = w[idx] / total
		cp.weighted, cp.wOff = true, len(e.weights)
		e.weights = append(e.weights, w...)
	}
	e.path = append(e.path, cp)
	e.prob *= p
	return idx
}
