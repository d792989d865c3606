package mc

import (
	"errors"
	"math"
	"testing"

	"ituaval/internal/san"
)

// walkCase is a chain with one reward and one first-passage predicate.
type walkCase struct {
	name string
	c    *CTMC
	f    func(*san.State) float64
	bad  func(*san.State) bool
}

func walkCases(t *testing.T) []walkCase {
	t.Helper()
	mm, q := buildMM1K(t, 1, 2, 10)
	mmc, err := Generate(mm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	two, up := buildTwoState(t, 0.3, 5)
	twoc, err := Generate(two, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return []walkCase{
		{"mm1k", mmc,
			func(s *san.State) float64 { return float64(s.Get(q)) },
			func(s *san.State) bool { return s.Int(q) >= 4 }},
		{"twostate", twoc,
			func(s *san.State) float64 { return float64(1 - s.Get(up)) },
			func(s *san.State) bool { return s.Get(up) == 0 }},
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

// TestWalkOrderMatchesOneShot asks one shared walk for horizons on both
// sides of the steady-state exit, in increasing and decreasing order, and
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
			if plain.steadyAt < 0 || fp.steadyAt < 0 {
				t.Fatalf("%s: steady-state exit never fired (plain %d, first passage %d)",
					wc.name, plain.steadyAt, fp.steadyAt)
			}
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

// TestSteadyExitBound compares instant, interval and first-passage values
// with and without the steady-state exit at horizons where it fires. The
// exit stops on a max-norm step difference of ssTol, which is not itself
// an error bound; the worst difference observed here is recorded in
// DESIGN.md ("Analytic path").
func TestSteadyExitBound(t *testing.T) {
	const bound = 1e-10
	horizons := []float64{60, 200, 1000}
	worst := 0.0
	for _, wc := range walkCases(t) {
		plain, fp := wc.c.RewardWalk(wc.f), wc.c.FirstPassageWalk(wc.bad)
		exit := walkValues(t, plain, fp, horizons)
		if plain.steadyAt < 0 || fp.steadyAt < 0 {
			t.Fatalf("%s: steady-state exit never fired", wc.name)
		}
		plain, fp = wc.c.RewardWalk(wc.f), wc.c.FirstPassageWalk(wc.bad)
		plain.noSteadyExit, fp.noSteadyExit = true, true
		full := walkValues(t, plain, fp, horizons)
		for i, h := range horizons {
			for m, name := range []string{"instant", "interval", "first passage"} {
				d := math.Abs(exit[i][m] - full[i][m])
				if rel := d / math.Max(1, math.Abs(full[i][m])); rel > worst {
					worst = rel
				}
				if d > bound*math.Max(1, math.Abs(full[i][m])) {
					t.Errorf("%s %s at t=%v: exit %.17g, no exit %.17g (|Δ| %.3g)",
						wc.name, name, h, exit[i][m], full[i][m], d)
				}
			}
		}
	}
	t.Logf("worst relative difference with vs without the steady-state exit: %.3g", worst)
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
