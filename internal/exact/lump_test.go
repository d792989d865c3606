package exact_test

// Golden lumped-vs-full equivalence: by ordinary lumpability the
// symmetry-lumped quotient chain must reproduce the full chain's measures
// exactly (up to floating-point accumulation order, bounded far below the
// solver's 1e-12 uniformization tolerance). TestLumpedEquivalence checks
// a fixed pair of small configurations on every `go test` run; the
// sweep over every configuration of the analytic, live and faults grids —
// plus the worker-count determinism check — runs under LUMPCHECK_FULL=1
// (`make lumpcheck`).

import (
	"math"
	"os"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/exact"
	"ituaval/internal/study"
)

// lumpTol bounds |full - lumped| for every measure. Both solvers run the
// same uniformization with eps 1e-12; the chains are different orderings
// of the same lumped dynamics, so the difference is pure round-off.
const lumpTol = 1e-12

// equivMeasures solves one configuration on a solver and returns the three
// exact measures at horizon T.
func equivMeasures(t *testing.T, s *exact.Solver, T float64) [3]float64 {
	t.Helper()
	u, err := s.Unavailability(0, T)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Unreliability(0, T)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.FracDomainsExcluded(T)
	if err != nil {
		t.Fatal(err)
	}
	return [3]float64{u, r, e}
}

// checkLumpedEquivalence generates the full and lumped chains for p and
// compares every measure; it returns false (after logging) when the full
// chain does not generate under maxStates. Workers are varied on the
// lumped side to pin quotient determinism: the canonical renumber must
// make the quotient chain — and therefore every solved value —
// bit-identical at any worker count.
func checkLumpedEquivalence(t *testing.T, name string, p core.Params, maxStates int, workerCounts []int) bool {
	t.Helper()
	const T = 10.0
	full, err := exact.NewSolver(p, exact.Options{MaxStates: maxStates, NoLump: true})
	if err != nil {
		t.Logf("%s: full chain skipped: %v", name, err)
		return false
	}
	fm := equivMeasures(t, full, T)

	var first *exact.Solver
	var firstM [3]float64
	for _, w := range workerCounts {
		lumped, err := exact.NewSolver(p, exact.Options{MaxStates: maxStates, Workers: w})
		if err != nil {
			t.Fatalf("%s: lumped chain (workers=%d): %v", name, w, err)
		}
		lm := equivMeasures(t, lumped, T)
		if first == nil {
			first, firstM = lumped, lm
			if !lumped.Lumped {
				t.Logf("%s: no symmetry (canonicalizer refused); full == lumped trivially", name)
			}
			for i, mname := range [3]string{"unavailability", "unreliability", "fracExcluded"} {
				if d := math.Abs(fm[i] - lm[i]); d > lumpTol || math.IsNaN(d) {
					t.Errorf("%s: %s differs: full=%.17g lumped=%.17g (|Δ|=%.3g > %g)",
						name, mname, fm[i], lm[i], d, lumpTol)
				}
			}
			continue
		}
		if lumped.C.NumStates() != first.C.NumStates() || lumped.C.NumTransitions() != first.C.NumTransitions() {
			t.Errorf("%s: quotient chain shape depends on workers=%d: %d/%d states, %d/%d transitions",
				name, w, lumped.C.NumStates(), first.C.NumStates(),
				lumped.C.NumTransitions(), first.C.NumTransitions())
		}
		if lm != firstM {
			t.Errorf("%s: quotient solve not bit-identical at workers=%d: %v vs %v", name, w, lm, firstM)
		}
	}
	t.Logf("%s: full %d states / lumped %d states (%.2fx reduction), measures agree to %g",
		name, full.C.NumStates(), first.C.NumStates(),
		float64(full.C.NumStates())/float64(first.C.NumStates()), lumpTol)
	return true
}

// TestLumpedEquivalence covers both symmetry layers cheaply: domain
// exchange (2 domains x 1 host, the analytic study's configuration) and
// host exchange (1 domain x 2 hosts).
func TestLumpedEquivalence(t *testing.T) {
	dom := core.DefaultParams()
	dom.NumDomains, dom.HostsPerDomain, dom.NumApps, dom.RepsPerApp = 2, 1, 1, 2
	dom.CorruptionMult = 5
	dom.DomainSpreadRate = 0
	if !checkLumpedEquivalence(t, "2x1 domain-symmetry", dom, 500_000, []int{1, 8}) {
		t.Fatal("2x1 configuration must generate")
	}

	host := core.DefaultParams()
	host.NumDomains, host.HostsPerDomain, host.NumApps, host.RepsPerApp = 1, 2, 1, 1
	host.DomainSpreadRate = 0
	if !checkLumpedEquivalence(t, "1x2 host-symmetry", host, 100_000, []int{1, 8}) {
		t.Fatal("1x2 configuration must generate")
	}
}

// TestLumpedEquivalenceShapes is the exhaustive sweep (`make lumpcheck`):
// every distinct configuration of the analytic, live and faults grids (the
// studies sized so that their full chains generate), with Analytic forced,
// plus a 1x3 host-symmetry case. Each full chain must generate under a
// 1<<20 state cap and match its quotient to lumpTol at worker counts 1 and
// 4; a configuration that hits the cap fails.
func TestLumpedEquivalenceShapes(t *testing.T) {
	if os.Getenv("LUMPCHECK_FULL") == "" {
		t.Skip("set LUMPCHECK_FULL=1 (make lumpcheck) to run the exhaustive shape sweep")
	}
	seen := map[core.Params]bool{}
	for _, id := range []string{"analytic", "live", "faults"} {
		for _, pt := range study.Registry[id].Grid() {
			p := pt.Params
			p.Analytic = true
			if seen[p] {
				continue
			}
			seen[p] = true
			if !checkLumpedEquivalence(t, pt.Label, p, 1<<20, []int{1, 4}) {
				t.Errorf("%s: full chain must generate under 1<<20 states", pt.Label)
			}
		}
	}
	// A three-host domain exercises a non-trivial host orbit (3! = 6).
	tall := core.DefaultParams()
	tall.NumDomains, tall.HostsPerDomain, tall.NumApps, tall.RepsPerApp = 1, 3, 1, 1
	tall.DomainSpreadRate = 0
	if !checkLumpedEquivalence(t, "1x3 host-symmetry", tall, 1<<21, []int{1, 4}) {
		t.Error("1x3 host-symmetry: full chain must generate under 1<<21 states")
	}
	t.Logf("equivalence checked on %d configurations", len(seen)+1)
}
