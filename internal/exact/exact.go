// Package exact evaluates the paper's measures numerically: it converts a
// core ITUA configuration to a CTMC (internal/mc) and computes interval
// unavailability, unreliability, and the exclusion fraction by
// uniformization — no sampling, no confidence intervals. This is the
// third, strongest arm of the validation triangle next to the SAN engine
// and the direct simulator: on configurations small enough to generate,
// both simulators' estimates must bracket these values.
//
// The composed model latches its intrusions counter at 1 (every guard
// and measure only tests intrusions == 0), so the reachable state space
// is finite and the chain solved here is the very model the simulators
// sample. The solver still sets Params.Analytic, which no longer changes
// the model (core.Params.Analytic documents why it stays).
//
// By default the solver generates the symmetry-lumped quotient chain
// (core.NewCanonicalizer): hosts within a domain and whole domains are
// exchangeable, so the full chain's orbits collapse into single states and
// multi-host topologies that are far beyond MaxStates become solvable.
// Every measure this package computes is orbit-invariant (Improper,
// Byzantine, and DomainsExcluded read only permutation-transported
// counts), so the quotient yields bit-accurate answers in the sense of
// ordinary lumpability. Configurations the canonicalizer refuses
// (least-loaded placement, single-host topologies) fall back to the full
// chain automatically; Options.NoLump forces the full chain everywhere,
// which the equivalence tests use.
//
// A Solver answers every measure from at most one uniformization walk per
// operator (mc.Walk): one walk of the plain chain records every
// application's improper-service indicator and the excluded-domain
// fraction, and one walk per application makes that application's
// Byzantine states absorbing. Each walk advances only as far as the
// largest horizon asked so far, so the paper's measures at 5 h and 10 h
// cost two passes to the 10 h horizon instead of one pass per measure and
// horizon, and every value is bit-identical to the matching one-shot mc
// call (IntervalAverageReward, FirstPassageProb, TransientReward) on the
// same chain, whatever the order of the calls.
package exact

import (
	"fmt"

	"ituaval/internal/core"
	"ituaval/internal/mc"
	"ituaval/internal/san"
)

// Options configures chain generation for the solver.
type Options struct {
	// MaxStates aborts generation beyond this many states (0 = mc default).
	MaxStates int
	// Workers is the generation and solve parallelism (0 = GOMAXPROCS).
	Workers int
	// NoLump disables symmetry lumping and generates the full chain even
	// when the configuration is symmetric. Measures are unchanged (ordinary
	// lumpability); only the state count and runtime differ.
	NoLump bool
}

// Solver holds a generated chain together with the model handles the
// measure definitions need, and caches the uniformization walks its
// measures share: the plain walk, created at the first unavailability or
// exclusion request, and one first-passage walk per application, created
// at that application's first unreliability request. Methods may be called
// repeatedly and in any order; a Solver is not safe for concurrent use.
type Solver struct {
	M *core.Model
	C *mc.CTMC
	// Lumped reports whether the chain is the symmetry quotient rather
	// than the full chain.
	Lumped bool

	plain     *mc.Walk   // rewards: Improper(0..NumApps-1), then excluded fraction
	byzantine []*mc.Walk // by app: the walk absorbing on Byzantine(app)
}

// NewSolver builds the composed ITUA model for p and generates its CTMC —
// the symmetry-lumped quotient when the configuration admits one and
// opts.NoLump is unset. Configurations that are too large surface as the
// mc.Generate MaxStates error.
func NewSolver(p core.Params, opts Options) (*Solver, error) {
	p.Analytic = true
	m, err := core.Build(p)
	if err != nil {
		return nil, err
	}
	mcOpts := mc.Options{MaxStates: opts.MaxStates, Workers: opts.Workers}
	lumped := false
	if !opts.NoLump {
		if canon := core.NewCanonicalizer(m); canon != nil {
			mcOpts.Canon = canon
			lumped = true
		}
	}
	c, err := mc.Generate(m.SAN, mcOpts)
	if err != nil {
		return nil, fmt.Errorf("exact: %w", err)
	}
	return &Solver{M: m, C: c, Lumped: lumped}, nil
}

// indicator lifts a predicate to a 0/1 rate reward.
func indicator(pred func(*san.State) bool) func(*san.State) float64 {
	return func(s *san.State) float64 {
		if pred(s) {
			return 1
		}
		return 0
	}
}

// plainWalk returns the walk of the plain chain, creating it on first use.
func (s *Solver) plainWalk() *mc.Walk {
	if s.plain == nil {
		apps := s.M.Params.NumApps
		fs := make([]func(*san.State) float64, 0, apps+1)
		for a := 0; a < apps; a++ {
			fs = append(fs, indicator(s.M.Improper(a)))
		}
		excluded := s.M.DomainsExcluded
		n := float64(s.M.Params.NumDomains)
		fs = append(fs, func(st *san.State) float64 {
			return float64(st.Get(excluded)) / n
		})
		s.plain = s.C.RewardWalk(fs...)
	}
	return s.plain
}

// checkApp rejects an application index the model does not have.
func (s *Solver) checkApp(app int) error {
	if app < 0 || app >= s.M.Params.NumApps {
		return fmt.Errorf("exact: application %d out of range [0,%d)", app, s.M.Params.NumApps)
	}
	return nil
}

// Unavailability is the expected fraction of [0, T] during which
// application app's service is improper — the exact value of
// core.Model.Unavailability.
func (s *Solver) Unavailability(app int, T float64) (float64, error) {
	if err := s.checkApp(app); err != nil {
		return 0, err
	}
	return s.plainWalk().IntervalAverage(app, T)
}

// Unreliability is the probability that application app suffers a
// Byzantine fault at least once in [0, T] — the exact value of
// core.Model.Unreliability.
func (s *Solver) Unreliability(app int, T float64) (float64, error) {
	if err := s.checkApp(app); err != nil {
		return 0, err
	}
	if s.byzantine == nil {
		s.byzantine = make([]*mc.Walk, s.M.Params.NumApps)
	}
	w := s.byzantine[app]
	if w == nil {
		w = s.C.FirstPassageWalk(s.M.Byzantine(app))
		s.byzantine[app] = w
	}
	return w.Instant(0, T)
}

// FracDomainsExcluded is the expected fraction of security domains
// excluded by time T — the exact value of core.Model.FracDomainsExcluded.
func (s *Solver) FracDomainsExcluded(T float64) (float64, error) {
	return s.plainWalk().Instant(s.M.Params.NumApps, T)
}
