// Package precision implements adaptive precision and variance reduction
// for replicated simulation studies: the doubling replication schedule and
// half-width target check that study.RunSweep grows precision-targeted
// sweep points with, and paired policy comparison on common random numbers
// with paired-t confidence intervals, variance-reduction reporting, and
// crossover location for policy sweeps.
//
// Both uses are deterministic for a fixed seed: batch boundaries depend
// only on the schedule (never on timing or worker scheduling), every batch
// keeps per-replication values so aggregation runs in replication order,
// and contiguous batches merge exactly. Running with 1 worker or 16 yields
// bit-identical results, and re-running the schedule from a checkpoint
// reproduces it.
package precision

import (
	"errors"
	"fmt"

	"ituaval/internal/sim"
	"ituaval/internal/stats"
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

// NextBatch returns the size of the batch to run after total replications
// of a schedule that starts with a batch of initial and stops at max: the
// cumulative count doubles, clamped at max.
func NextBatch(total, initial, max int) int {
	n := initial
	if total > 0 {
		n = total
	}
	if total+n > max {
		n = max - total
	}
	return n
}

// TargetsMet reports whether every target's estimate satisfies its
// precision request.
func TargetsMet(targets []Target, res *sim.Results) bool {
	for _, t := range targets {
		est, ok := res.Get(t.Var)
		if !ok || !stats.PrecisionMet(est.Mean, est.HalfWidth95, t.RelHW, t.AbsHW) {
			return false
		}
	}
	return true
}
