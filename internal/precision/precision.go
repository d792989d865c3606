// Package precision implements variance reduction and adaptive precision
// for replicated simulation studies: sequential stopping (grow the
// replication count by doubling until every requested measure reaches a
// 95% half-width target), and paired policy comparison on common random
// numbers with paired-t confidence intervals, variance-reduction reporting,
// and crossover location for policy sweeps.
//
// Both entry points are deterministic for a fixed seed: batch boundaries
// depend only on the spec (never on timing or worker scheduling), every
// batch keeps per-replication values so aggregation runs in replication
// order, and contiguous batches merge exactly. Running with 1 worker or 16
// yields bit-identical results, and re-running the schedule from a
// checkpoint reproduces it.
package precision

import (
	"context"
	"errors"
	"fmt"

	"ituaval/internal/sim"
	"ituaval/internal/stats"
)

// Defaults for the sequential-stopping schedule.
const (
	DefaultInitialReps = 32
	DefaultMaxReps     = 4096
)

// Target requests a confidence-interval precision for one reward variable.
// At least one of the two half-width targets must be positive; meeting
// either satisfies the target (see stats.PrecisionMet, including the
// degradation of the relative rule at mean ≈ 0).
type Target struct {
	// Var names the reward variable (sim Estimate name). In a paired
	// comparison the target applies to the measure's delta.
	Var string
	// RelHW is the relative 95% half-width target: stop when
	// hw <= RelHW·|mean|. Zero means not requested.
	RelHW float64
	// AbsHW is the absolute 95% half-width target: stop when hw <= AbsHW.
	// Zero means not requested.
	AbsHW float64
}

// Spec describes a sequentially-stopped study: the base simulation spec
// plus the precision schedule. Sim.Reps is ignored — the schedule governs
// how many replications run.
type Spec struct {
	// Sim is the base study. KeepPerRep is forced on.
	Sim sim.Spec
	// Targets lists the measures that must reach their precision before
	// stopping; every entry must name a variable of Sim.Vars.
	Targets []Target
	// InitialReps is the size of the first batch (default
	// DefaultInitialReps).
	InitialReps int
	// MaxReps bounds the total replication count (default DefaultMaxReps).
	// The cumulative replication count doubles between precision checks.
	MaxReps int
}

// Result is the outcome of a sequentially-stopped study.
type Result struct {
	// Results aggregates every batch that ran (merged exactly, as if the
	// total had been requested up front in one call).
	Results *sim.Results
	// Batches is the number of batches executed.
	Batches int
	// Met reports whether every target was satisfied when the run stopped;
	// false means the schedule hit MaxReps (or was interrupted) first.
	Met bool
}

// normalize fills schedule defaults and validates the spec. It returns the
// effective (initial, max).
func (s *Spec) normalize() (int, int, error) {
	initial, max := s.InitialReps, s.MaxReps
	if initial == 0 {
		initial = DefaultInitialReps
	}
	if max == 0 {
		max = DefaultMaxReps
	}
	if initial < 1 {
		return 0, 0, fmt.Errorf("precision: InitialReps must be >= 1, got %d", initial)
	}
	if max < initial {
		return 0, 0, fmt.Errorf("precision: MaxReps %d below the initial batch %d", max, initial)
	}
	return initial, max, nil
}

// validateTargets checks that every target names a known variable and
// requests at least one positive half-width.
func validateTargets(targets []Target, known map[string]bool) error {
	if len(targets) == 0 {
		return errors.New("precision: at least one Target is required")
	}
	for _, t := range targets {
		if !known[t.Var] {
			return fmt.Errorf("precision: target names unknown variable %q", t.Var)
		}
		if t.RelHW < 0 || t.AbsHW < 0 {
			return fmt.Errorf("precision: target %q has a negative half-width", t.Var)
		}
		if t.RelHW == 0 && t.AbsHW == 0 {
			return fmt.Errorf("precision: target %q requests no precision", t.Var)
		}
	}
	return nil
}

// nextBatch returns the size of the batch to run after total replications,
// doubling the cumulative count and clamping at max.
func nextBatch(total, initial, max int) int {
	n := initial
	if total > 0 {
		n = total
	}
	if total+n > max {
		n = max - total
	}
	return n
}

// Run executes the study in doubling batches until every
// target is met or MaxReps is reached. The merged results are identical to
// a single run of the same total replication count, bit-for-bit, for any
// worker count.
//
// Like sim.RunContext, Run returns partial results alongside the error when
// the context is cancelled or a batch exceeds its failure tolerance.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	initial, max, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(spec.Sim.Vars))
	for _, v := range spec.Sim.Vars {
		known[v.Name()] = true
	}
	if err := validateTargets(spec.Targets, known); err != nil {
		return nil, err
	}

	s := spec.Sim
	s.KeepPerRep = true
	out := &Result{}
	total := 0
	for total < max {
		s.FirstRep = spec.Sim.FirstRep + total
		s.Reps = nextBatch(total, initial, max)
		batch, err := sim.RunContext(ctx, s)
		if batch != nil {
			if out.Results == nil {
				out.Results = batch
			} else if merr := out.Results.Merge(batch); merr != nil {
				return out, merr
			}
			out.Batches++
			total += s.Reps
		}
		if err != nil {
			return out, err
		}
		if targetsMet(spec.Targets, out.Results) {
			out.Met = true
			return out, nil
		}
	}
	return out, nil
}

// targetsMet reports whether every target's estimate satisfies its
// precision request.
func targetsMet(targets []Target, res *sim.Results) bool {
	for _, t := range targets {
		est, ok := res.Get(t.Var)
		if !ok || !stats.PrecisionMet(est.Mean, est.HalfWidth95, t.RelHW, t.AbsHW) {
			return false
		}
	}
	return true
}
