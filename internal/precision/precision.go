// Package precision holds the adaptive-precision rules of replicated
// simulation studies: the doubling replication schedule and the half-width
// target check that study.RunSweep grows precision-targeted sweep points
// with (for a CRN-paired point the check applies to the paired deltas),
// and crossover location for the paired deltas of a policy sweep.
//
// The schedule is deterministic for a fixed seed: batch boundaries depend
// only on the schedule (never on timing or worker scheduling), every batch
// keeps per-replication values so aggregation runs in replication order,
// and contiguous batches merge exactly. Running with 1 worker or 16 yields
// bit-identical results, and re-running the schedule from a checkpoint
// reproduces it.
package precision

import (
	"ituaval/internal/sim"
	"ituaval/internal/stats"
)

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

// TargetsMet reports whether every estimate's 95% half-width meets the
// target: at most rel·|mean| or at most abs, a zero target meaning not
// requested (see stats.PrecisionMet, including the degradation of the
// relative rule at mean ≈ 0).
func TargetsMet(ests []sim.Estimate, rel, abs float64) bool {
	for _, e := range ests {
		if !stats.PrecisionMet(e.Mean, e.HalfWidth95, rel, abs) {
			return false
		}
	}
	return true
}
