package mc_test

import (
	"runtime"
	"testing"
	"time"

	"ituaval/internal/exact"
	"ituaval/internal/mc"
	"ituaval/internal/san"
	"ituaval/internal/study"
)

// TestSolverMatvecs pins what sharing walks saves on the benchmark's
// exact-anchor shape (4 domains × 2 hosts, 2 applications × 2 replicas;
// 7,275 lumped states) at the middle of its attack-rate range. Its five
// measures — unavailability and unreliability at 5 h and 10 h, the
// excluded fraction at 10 h — cost 6,171 uniformization steps as one
// walk per measure, and 3,030 on a Solver, whose plain and first-passage
// walks each go to the 10 h horizon once. Asked again, they cost nothing.
func TestSolverMatvecs(t *testing.T) {
	p := study.AnalyticAnchorParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 4, 2, 2, 2
	p.TotalAttackRate = 3
	s, err := exact.NewSolver(p, exact.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	improper := func(st *san.State) float64 {
		if s.M.Improper(0)(st) {
			return 1
		}
		return 0
	}
	excluded := func(st *san.State) float64 {
		return float64(st.Get(s.M.DomainsExcluded)) / float64(s.M.Params.NumDomains)
	}
	perMeasure := []func() (float64, error){
		func() (float64, error) { return s.C.IntervalAverageReward(5, improper) },
		func() (float64, error) { return s.C.IntervalAverageReward(10, improper) },
		func() (float64, error) { return s.C.FirstPassageProb(5, s.M.Byzantine(0)) },
		func() (float64, error) { return s.C.FirstPassageProb(10, s.M.Byzantine(0)) },
		func() (float64, error) { return s.C.TransientReward(10, excluded) },
	}
	shared := []func() (float64, error){
		func() (float64, error) { return s.Unavailability(0, 5) },
		func() (float64, error) { return s.Unavailability(0, 10) },
		func() (float64, error) { return s.Unreliability(0, 5) },
		func() (float64, error) { return s.Unreliability(0, 10) },
		func() (float64, error) { return s.FracDomainsExcluded(10) },
	}
	cost := func(fs []func() (float64, error)) int64 {
		t.Helper()
		before := mc.Matvecs()
		for _, f := range fs {
			if _, err := f(); err != nil {
				t.Fatal(err)
			}
		}
		return mc.Matvecs() - before
	}
	if n := cost(perMeasure); n != 6171 {
		t.Errorf("one walk per measure: %d matvecs, want 6171", n)
	}
	if n := cost(shared); n != 3030 {
		t.Errorf("Solver: %d matvecs, want 3030", n)
	}
	if n := cost(shared); n != 0 {
		t.Errorf("Solver asked again: %d matvecs, want 0", n)
	}
}

// TestSolverReleasesGoroutines: walks hold no goroutines between
// requests. The lumped 4-domain × 1-host chain (benchITUAParams; 39,062
// states, 240,132 transitions) is above the parallel-matvec threshold, so
// at two workers every extension runs a worker pool, and each pool must be
// gone once the request that started it returns.
func TestSolverReleasesGoroutines(t *testing.T) {
	s, err := exact.NewSolver(benchITUAParams(), exact.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.C.NumStates() + s.C.NumTransitions(); n < mc.ParallelSolveMin {
		t.Fatalf("chain size %d is below the parallel-matvec threshold %d", n, mc.ParallelSolveMin)
	}
	base := runtime.NumGoroutine()
	for _, solve := range []func() (float64, error){
		func() (float64, error) { return s.Unavailability(0, .5) },
		func() (float64, error) { return s.Unavailability(0, 1) },
		func() (float64, error) { return s.Unreliability(0, .5) },
		func() (float64, error) { return s.Unreliability(0, 1) },
		func() (float64, error) { return s.FracDomainsExcluded(1) },
	} {
		if _, err := solve(); err != nil {
			t.Fatal(err)
		}
		// A worker that has signalled its exit may not have returned yet.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			runtime.Gosched()
			time.Sleep(time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > base {
			t.Fatalf("%d goroutines after a request, %d before the first", g, base)
		}
	}
}
