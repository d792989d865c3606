package exact_test

import (
	"errors"
	"math"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/exact"
	"ituaval/internal/mc"
	"ituaval/internal/san"
	"ituaval/internal/study"
)

// anchorParams is the benchmark's exact-anchor shape (4 domains × 2
// hosts, 2 applications × 2 replicas; 7,275 lumped states) at the middle
// of its attack-rate range.
func anchorParams() core.Params {
	p := study.AnalyticAnchorParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 4, 2, 2, 2
	p.TotalAttackRate = 3
	return p
}

// measure is one Solver request on application 0.
type measure struct {
	name string
	T    float64
}

// The benchmark's five measures and the analytic study's order of its
// four, at a tenth of their 5 h and 10 h horizons: a walk's logic does not
// depend on the horizon, and the shorter windows keep the race-detector
// run of these tests short. The benchmark's own tests compare the Solver
// with the one-shot calls at the full horizons.
var (
	benchMeasures = []measure{{"u.5", .5}, {"u1", 1}, {"r.5", .5}, {"r1", 1}, {"excl1", 1}}
	analyticOrder = []measure{{"u.5", .5}, {"r.5", .5}, {"u1", 1}, {"r1", 1}}
)

func (m measure) solve(s *exact.Solver) (float64, error) {
	switch m.name[0] {
	case 'u':
		return s.Unavailability(0, m.T)
	case 'r':
		return s.Unreliability(0, m.T)
	}
	return s.FracDomainsExcluded(m.T)
}

// oneShot is the mc call the benchmark's traced path makes for m.
func (m measure) oneShot(s *exact.Solver) (float64, error) {
	c, md := s.C, s.M
	switch m.name[0] {
	case 'u':
		return c.IntervalAverageReward(m.T, func(st *san.State) float64 {
			if md.Improper(0)(st) {
				return 1
			}
			return 0
		})
	case 'r':
		return c.FirstPassageProb(m.T, md.Byzantine(0))
	}
	excluded, n := md.DomainsExcluded, float64(md.Params.NumDomains)
	return c.TransientReward(m.T, func(st *san.State) float64 {
		return float64(st.Get(excluded)) / n
	})
}

// fresh is a Solver on s's chain with no walks yet.
func fresh(s *exact.Solver) *exact.Solver { return &exact.Solver{M: s.M, C: s.C, Lumped: s.Lumped} }

// TestSolverCallOrder: whatever order a Solver is asked its measures in,
// every value is bit-identical to a fresh Solver asked that one measure
// and to the matching one-shot mc call, at one and two workers.
func TestSolverCallOrder(t *testing.T) {
	orders := [][]measure{
		benchMeasures,
		{benchMeasures[4], benchMeasures[3], benchMeasures[2], benchMeasures[1], benchMeasures[0]},
		{benchMeasures[2], benchMeasures[4], benchMeasures[1], benchMeasures[0], benchMeasures[3]},
		analyticOrder,
	}
	for _, workers := range []int{1, 2} {
		s, err := exact.NewSolver(anchorParams(), exact.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]float64)
		for _, m := range benchMeasures {
			v, err := m.solve(fresh(s))
			if err != nil {
				t.Fatal(err)
			}
			one, err := m.oneShot(s)
			if err != nil {
				t.Fatal(err)
			}
			if v != one {
				t.Errorf("workers=%d %s: fresh Solver %.17g, one-shot mc %.17g", workers, m.name, v, one)
			}
			want[m.name] = v
		}
		for oi, order := range orders {
			shared := fresh(s)
			for _, m := range order {
				v, err := m.solve(shared)
				if err != nil {
					t.Fatal(err)
				}
				if v != want[m.name] {
					t.Errorf("workers=%d order %d %s: shared Solver %.17g, alone %.17g",
						workers, oi, m.name, v, want[m.name])
				}
			}
		}
	}
}

// TestSolverPoissonTruncation: a horizon whose Poisson window cannot be
// built fails through every Solver entry point — with
// mc.ErrPoissonTruncation when it is too large, with a plain error when it
// is NaN or infinite — and leaves the cached walks usable.
func TestSolverPoissonTruncation(t *testing.T) {
	p := study.AnalyticAnchorParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 2, 2, 2, 2
	s, err := exact.NewSolver(p, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const huge = 1e14
	for _, m := range benchMeasures {
		if _, err := m.solve(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"u", "r", "excl"} {
		if _, err := (measure{name, huge}).solve(s); !errors.Is(err, mc.ErrPoissonTruncation) {
			t.Fatalf("%s at t=%g: err = %v, want ErrPoissonTruncation", name, huge, err)
		}
		for _, h := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if _, err := (measure{name, h}).solve(s); err == nil || errors.Is(err, mc.ErrPoissonTruncation) {
				t.Fatalf("%s at t=%v: err = %v, want a non-truncation error", name, h, err)
			}
		}
	}
	for _, m := range benchMeasures {
		got, err := m.solve(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.solve(fresh(s))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s after failed requests: %.17g, fresh Solver %.17g", m.name, got, want)
		}
	}
}

// TestSolverRejectsUnknownApp: the plain walk records the excluded
// fraction right after the last application's indicator, so an index past
// the model's applications must fail rather than read that record.
func TestSolverRejectsUnknownApp(t *testing.T) {
	p := study.AnalyticAnchorParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 2, 2, 1, 2
	s, err := exact.NewSolver(p, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []int{-1, 1} {
		if _, err := s.Unavailability(app, 5); err == nil {
			t.Errorf("Unavailability(%d) succeeded on a 1-application model", app)
		}
		if _, err := s.Unreliability(app, 5); err == nil {
			t.Errorf("Unreliability(%d) succeeded on a 1-application model", app)
		}
	}
}
