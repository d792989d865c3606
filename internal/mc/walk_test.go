package mc

import (
	"errors"
	"math"
	mrand "math/rand"
	"testing"

	"ituaval/internal/san"
)

// walkCase is a chain with one reward and one first-passage predicate,
// and the closed forms of the instant, interval-average and first-passage
// values that are known (NaN where none is).
type walkCase struct {
	name  string
	c     *CTMC
	f     func(*san.State) float64
	bad   func(*san.State) bool
	span  float64 // the range of f
	exact func(h float64) [3]float64
}

func walkCases(t *testing.T) []walkCase {
	t.Helper()
	const mmLambda, mmMu, mmK = 1.0, 2.0, 10
	mm, q := buildMM1K(t, mmLambda, mmMu, mmK)
	mmc, err := Generate(mm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	norm, mean := 0.0, 0.0
	for n := 0; n <= mmK; n++ {
		p := math.Pow(mmLambda/mmMu, float64(n))
		norm += p
		mean += float64(n) * p
	}
	mean /= norm
	const lambda, mu = 0.3, 5.0
	two, up := buildTwoState(t, lambda, mu)
	twoc, err := Generate(two, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	return []walkCase{
		{"mm1k", mmc,
			func(s *san.State) float64 { return float64(s.Get(q)) },
			func(s *san.State) bool { return s.Int(q) >= 4 },
			mmK,
			// The queue has mixed to its geometric stationary law by
			// t = 200, and q >= 4 is reached by t = 1000 (the mean
			// hitting time from empty is 1+3+7+15 = 26).
			func(h float64) [3]float64 {
				v := [3]float64{nan, nan, nan}
				if h >= 200 {
					v[0] = mean
				}
				if h >= 1000 {
					v[2] = 1
				}
				return v
			}},
		{"twostate", twoc,
			func(s *san.State) float64 { return float64(1 - s.Get(up)) },
			func(s *san.State) bool { return s.Get(up) == 0 },
			1,
			func(h float64) [3]float64 {
				s := lambda + mu
				down := lambda / s * (1 - math.Exp(-s*h))
				avg := lambda / s * (1 - (1-math.Exp(-s*h))/(s*h))
				return [3]float64{down, avg, 1 - math.Exp(-lambda*h)}
			}},
	}
}

// walkValues asks a plain and a first-passage walk for the instant,
// interval and first-passage values at each horizon, in order.
func walkValues(t *testing.T, plain, fp *Walk, horizons []float64) [][3]float64 {
	t.Helper()
	out := make([][3]float64, len(horizons))
	for i, h := range horizons {
		var err error
		if out[i][0], err = plain.Instant(0, h); err != nil {
			t.Fatal(err)
		}
		if out[i][1], err = plain.IntervalAverage(0, h); err != nil {
			t.Fatal(err)
		}
		if out[i][2], err = fp.Instant(0, h); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestWalkOrderMatchesOneShot asks one shared walk for horizons from
// short to far past mixing, in increasing and decreasing order, and
// requires every value to be bit-identical to the one-shot call.
func TestWalkOrderMatchesOneShot(t *testing.T) {
	horizons := []float64{0.5, 3, 20, 60, 200, 1000}
	for _, wc := range walkCases(t) {
		want := make([][3]float64, len(horizons))
		for i, h := range horizons {
			var err error
			if want[i][0], err = wc.c.TransientReward(h, wc.f); err != nil {
				t.Fatal(err)
			}
			if want[i][1], err = wc.c.IntervalAverageReward(h, wc.f); err != nil {
				t.Fatal(err)
			}
			if want[i][2], err = wc.c.FirstPassageProb(h, wc.bad); err != nil {
				t.Fatal(err)
			}
		}
		for _, reverse := range []bool{false, true} {
			hs := append([]float64(nil), horizons...)
			if reverse {
				for i, j := 0, len(hs)-1; i < j; i, j = i+1, j-1 {
					hs[i], hs[j] = hs[j], hs[i]
				}
			}
			plain, fp := wc.c.RewardWalk(wc.f), wc.c.FirstPassageWalk(wc.bad)
			got := walkValues(t, plain, fp, hs)
			for i, h := range hs {
				w := want[i]
				if reverse {
					w = want[len(hs)-1-i]
				}
				if got[i] != w {
					t.Errorf("%s reverse=%v t=%v: walk %v, one-shot %v", wc.name, reverse, h, got[i], w)
				}
			}
		}
	}
}

// TestWalkClosedForm compares instant, interval-average and
// first-passage values with their closed forms at horizons from short to
// far past mixing. Every value must lie within the Poisson window's
// accuracy of the exact one, scaled by the reward's range: no other error
// source may enter, however long the walk.
func TestWalkClosedForm(t *testing.T) {
	horizons := []float64{0.5, 3, 20, 60, 200, 1000}
	worst := 0.0
	for _, wc := range walkCases(t) {
		plain, fp := wc.c.RewardWalk(wc.f), wc.c.FirstPassageWalk(wc.bad)
		got := walkValues(t, plain, fp, horizons)
		for i, h := range horizons {
			want := wc.exact(h)
			for m, name := range []string{"instant", "interval", "first passage"} {
				if math.IsNaN(want[m]) {
					continue
				}
				scale := 1.0
				if m < 2 {
					scale = math.Max(1, wc.span)
				}
				d := math.Abs(got[i][m]-want[m]) / scale
				worst = math.Max(worst, d)
				if d > poissonEps {
					t.Errorf("%s %s at t=%v: walk %.17g, closed form %.17g (|Δ|/scale %.3g)",
						wc.name, name, h, got[i][m], want[m], d)
				}
			}
		}
	}
	t.Logf("worst scaled error against the closed forms: %.3g", worst)
}

// TestNonFiniteHorizon: a NaN or infinite horizon fails with a plain
// error, not ErrPoissonTruncation, through both walk measures, Transient
// and the three one-shot calls, before any window is built or any step
// runs.
func TestNonFiniteHorizon(t *testing.T) {
	m, up := buildTwoState(t, 0.5, 2.0)
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(s *san.State) float64 { return float64(s.Get(up)) }
	down := func(s *san.State) bool { return s.Get(up) == 0 }
	w := c.RewardWalk(f)
	if _, err := w.Instant(0, 3); err != nil {
		t.Fatal(err)
	}
	steps, before := w.steps, matvecs.Load()
	for _, h := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, call := range map[string]func() error{
			"Instant":               func() error { _, err := w.Instant(0, h); return err },
			"IntervalAverage":       func() error { _, err := w.IntervalAverage(0, h); return err },
			"Transient":             func() error { _, err := c.Transient(h); return err },
			"TransientReward":       func() error { _, err := c.TransientReward(h, f); return err },
			"IntervalAverageReward": func() error { _, err := c.IntervalAverageReward(h, f); return err },
			"FirstPassageProb":      func() error { _, err := c.FirstPassageProb(h, down); return err },
		} {
			if err := call(); err == nil || errors.Is(err, ErrPoissonTruncation) {
				t.Errorf("%s(%v): err = %v, want a non-truncation error", name, h, err)
			}
		}
	}
	if w.steps != steps {
		t.Fatalf("non-finite horizons advanced the walk from %d to %d steps", steps, w.steps)
	}
	if n := matvecs.Load() - before; n != 0 {
		t.Fatalf("non-finite horizons ran %d matvecs, want 0", n)
	}
}

// TestFirstPassageAtZero: at t = 0 the first-passage probability is the
// initial mass already in the absorbing set, also after the walk has
// advanced.
func TestFirstPassageAtZero(t *testing.T) {
	m, up := buildTwoState(t, 0.3, 5)
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pred func(*san.State) bool
		want float64
	}{
		{func(s *san.State) bool { return s.Get(up) == 1 }, 1},
		{func(s *san.State) bool { return s.Get(up) == 0 }, 0},
	} {
		if got, err := c.FirstPassageProb(0, tc.pred); err != nil || got != tc.want {
			t.Fatalf("FirstPassageProb(0) = %v, %v; want %v", got, err, tc.want)
		}
		w := c.FirstPassageWalk(tc.pred)
		if _, err := w.Instant(0, 4); err != nil {
			t.Fatal(err)
		}
		if got, err := w.Instant(0, 0); err != nil || got != tc.want {
			t.Fatalf("walk at t=0 after t=4: %v, %v; want %v", got, err, tc.want)
		}
	}
}

// TestWalkSmallerHorizonIsFree: a horizon asked after a larger one reads
// the recorded steps and runs no matvec.
func TestWalkSmallerHorizonIsFree(t *testing.T) {
	m, q := buildMM1K(t, 1, 2, 10)
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(s *san.State) float64 { return float64(s.Get(q)) }
	w := c.RewardWalk(f, f)
	if _, err := w.IntervalAverage(0, 10); err != nil {
		t.Fatal(err)
	}
	before := matvecs.Load()
	if _, err := w.IntervalAverage(0, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Instant(1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Instant(1, 10); err != nil {
		t.Fatal(err)
	}
	if n := matvecs.Load() - before; n != 0 {
		t.Fatalf("horizons within the walk ran %d matvecs, want 0", n)
	}
}

// TestWalkPoissonTruncation: a horizon whose Poisson window cannot be
// built fails with ErrPoissonTruncation through both walk measures and
// leaves the walk as it was, so later horizons still match a fresh walk.
func TestWalkPoissonTruncation(t *testing.T) {
	m, up := buildTwoState(t, 0.5, 2.0)
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(s *san.State) float64 { return float64(s.Get(up)) }
	const huge = 1e14
	w := c.RewardWalk(f)
	if _, err := w.Instant(0, 3); err != nil {
		t.Fatal(err)
	}
	steps := w.steps
	if _, err := w.Instant(0, huge); !errors.Is(err, ErrPoissonTruncation) {
		t.Fatalf("Instant: err = %v, want ErrPoissonTruncation", err)
	}
	if _, err := w.IntervalAverage(0, huge); !errors.Is(err, ErrPoissonTruncation) {
		t.Fatalf("IntervalAverage: err = %v, want ErrPoissonTruncation", err)
	}
	if w.steps != steps {
		t.Fatalf("failed requests advanced the walk from %d to %d steps", steps, w.steps)
	}
	got, err := w.IntervalAverage(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.IntervalAverageReward(7, f)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("after the failed requests: %v, fresh walk %v", got, want)
	}
}

// TestWalkRecordMatchesDot: a walk recording 1 to 7 rewards, which the
// walk sums in groups of up to four sharing one pass over the iterate,
// records for every reward and step the bits of that reward's own dot
// with the iterate.
func TestWalkRecordMatchesDot(t *testing.T) {
	r := mrand.New(mrand.NewSource(1))
	c := stepChain{n: 203, maxIn: 5, emptyFrac: 0.1, hub: true}.build(r)
	for nr := 1; nr <= 7; nr++ {
		rs := make([][]float64, nr)
		for j := range rs {
			rs[j] = make([]float64, c.n)
			for i := range rs[j] {
				rs[j][i] = r.NormFloat64()
			}
		}
		w := c.newWalk(nil, rs...)
		check := func(k int, v []float64) {
			for j, rj := range rs {
				if got, want := w.recorded[j][k], dot(v, rj); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%d rewards, reward %d, step %d: recorded %v, dot %v", nr, j, k, got, want)
				}
			}
		}
		check(0, c.InitialDistribution())
		w.visit = check
		w.extend(40)
	}
}
