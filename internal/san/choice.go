package san

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

// Permute fills p with a uniformly random permutation of 0..len(p)-1. In
// simulation it is exactly ctx.Rand.Perm(p); under enumeration the
// Fisher–Yates swaps become nested uniform choices, so each of the n!
// permutations is a branch of probability 1/n!.
func (ctx *Context) Permute(p []int) {
	if ctx.enum == nil {
		ctx.Rand.Perm(p)
		return
	}
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := ctx.enum.take(i+1, nil)
		p[i], p[j] = p[j], p[i]
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
// the decisions along the way.
type enumChooser struct {
	script  []int
	path    []choicePoint
	weights []float64 // copies of the weighted choices' weights, in path order
	prob    float64
}

func (e *enumChooser) reset(script []int) {
	e.script = script
	e.path = e.path[:0]
	e.weights = e.weights[:0]
	e.prob = 1
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
