package study

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"ituaval/internal/core"
	"ituaval/internal/precision"
	"ituaval/internal/reward"
	"ituaval/internal/sim"
	"ituaval/internal/stats"
)

// PointSpec describes one sweep point for RunSweep: a model configuration,
// the simulation horizon, the reward variables to estimate, and the seed
// offset that keeps the point's replication streams disjoint from every
// other point's. The registered figure runners build their sweeps from it,
// and the scenario DSL (internal/scenario) compiles to it.
type PointSpec struct {
	// Label prefixes any error attributed to this point.
	Label string
	// Params is the model configuration of the point.
	Params core.Params
	// Until is the simulation horizon in hours.
	Until float64
	// SeedOffset is added to Config.Seed to form the point's root seed.
	// Distinct points must use distinct offsets.
	SeedOffset uint64
	// Vars builds the reward variables on the constructed model.
	Vars func(m *core.Model) []reward.Var
	// PairedWith, when set, makes the point a CRN pair of two arms: arm A
	// runs Params and arm B runs *PairedWith, both with the point's Until,
	// SeedOffset and Vars, on common random numbers (replication i of
	// either arm draws the same randomness for the same stochastic role).
	// For each measure <v> the point reports <v>.a and <v>.b, the arms'
	// estimates; <v>.delta, the mean of the per-replication differences
	// A − B with its paired-t 95% half-width over N complete pairs; and
	// <v>.corr and <v>.vrf, the arms' correlation and the variance
	// reduction against independent sampling at equal replications (0 when
	// undefined). Replication counts sum both arms, and a precision target
	// applies to the deltas.
	PairedWith *core.Params
}

// SweepHooks are optional progress callbacks for RunSweep. Without a
// precision target both hooks fire from simulation worker goroutines while
// other points are still running, so they must be safe for concurrent use
// and must not block; under a precision target OnPoint fires synchronously
// from RunSweep's own goroutine.
type SweepHooks struct {
	// OnRep is called after every finished replication (completed, failed,
	// or drained after cancellation) of the given point index, of either
	// arm of a pair. It is not called under a precision target, whose
	// replication schedule is adaptive.
	OnRep func(point int)
	// OnPoint is called once per point with its aggregated result: when a
	// checkpointed point is restored without simulating; without a
	// precision target, when the worker pool finishes the point's last
	// replication (before the point's checkpoint is stored); under a
	// precision target, and for a pair, after the point's checkpoint is
	// stored, in point order within a round. Points that error are not
	// reported.
	OnPoint func(point int, pr *PointResult)
}

// sweepPoint is a point RunSweep still has to run: its index, checkpoint
// key and the simulation spec of each arm (one, or two for a pair), plus,
// under a precision target, the batches each arm has merged so far.
type sweepPoint struct {
	i    int
	key  string
	arms []sim.Spec
	acc  []*sim.Results
}

// RunSweep executes a set of sweep points under one configuration; it is
// how every registered figure runner and every compiled scenario runs its
// points. The points run in rounds, and each round is one sim.RunFlatFunc
// call over the next batch of every arm of every point still running, so
// their (arm, replication) pairs share one worker pool without a barrier
// per point.
//
// Without a precision target the sweep is one round of cfg.Reps
// replications per arm. With one, each point starts with a batch of
// cfg.Reps and doubles its cumulative replication count round by round
// until every measure (every paired delta, for a pair, on at least two
// pairs) meets the target or cfg.MaxReps is reached; a round runs only the
// points still short of their target. Batches keep per-replication values
// and merge in replication order, so a point equals one run of its final
// replication count. Either way every result is bit-identical at every
// worker count.
//
// Points already present in cfg.Checkpoint are restored without
// simulating, and each computed point is persisted before RunSweep returns,
// so an interrupted sweep resumed with the same checkpoint loses none of
// its finished work; a point whose replications all completed before a
// cancellation counts as finished. A point whose batch fails or is
// cancelled, in either arm, stops; the other points run on, and RunSweep
// returns the first error.
//
// The returned slice is parallel to points; on error, entries of points
// that completed (and were committed) are still populated, the rest are
// nil.
func RunSweep(ctx context.Context, cfg Config, points []PointSpec, hooks SweepHooks) ([]*PointResult, error) {
	cfg = cfg.withDefaults()
	precise := cfg.precisionMode()
	if precise {
		if cfg.TargetRelHW < 0 || cfg.TargetAbsHW < 0 {
			return nil, fmt.Errorf("study: negative precision target (rel %g, abs %g)", cfg.TargetRelHW, cfg.TargetAbsHW)
		}
		if cfg.MaxReps < cfg.Reps {
			return nil, fmt.Errorf("study: MaxReps %d below the initial batch %d", cfg.MaxReps, cfg.Reps)
		}
	}
	prs := make([]*PointResult, len(points))
	var running []*sweepPoint
	for i := range points {
		p := &points[i]
		arms := []core.Params{p.Params}
		if p.PairedWith != nil {
			arms = append(arms, *p.PairedWith)
		}
		pt := &sweepPoint{i: i}
		var vars [][]reward.Var
		for _, params := range arms {
			m, err := core.Build(params)
			if err != nil {
				return prs, fmt.Errorf("%s: %w", p.Label, err)
			}
			v := p.Vars(m)
			vars = append(vars, v)
			pt.arms = append(pt.arms, sim.Spec{
				Model:          m.SAN,
				Until:          p.Until,
				Reps:           cfg.Reps,
				Seed:           cfg.Seed + p.SeedOffset,
				Workers:        cfg.Workers,
				Vars:           v,
				RepDeadline:    cfg.RepDeadline,
				MaxFailureFrac: cfg.MaxFailureFrac,
				CRN:            len(arms) == 2,
				KeepPerRep:     precise || len(arms) == 2,
			})
		}
		if len(arms) == 2 && !slices.Equal(varNames(vars[0]), varNames(vars[1])) {
			return prs, fmt.Errorf("%s: the arms of a pair measure %q and %q", p.Label, varNames(vars[0]), varNames(vars[1]))
		}
		if cfg.Checkpoint != nil {
			pt.key = pointKey(cfg, p, vars)
			if pr, ok := cfg.Checkpoint.lookup(pt.key); ok {
				prs[i] = pr
				if hooks.OnPoint != nil {
					hooks.OnPoint(i, pr)
				}
				continue
			}
		}
		running = append(running, pt)
	}

	var firstErr error
	for len(running) > 0 {
		var specs []sim.Spec
		var owner []*sweepPoint
		for _, pt := range running {
			for a, spec := range pt.arms {
				if pt.acc != nil {
					spec.FirstRep = pt.acc[a].Reps
					spec.Reps = precision.NextBatch(pt.acc[a].Reps, cfg.Reps, cfg.MaxReps)
				}
				specs = append(specs, spec)
				owner = append(owner, pt)
			}
		}
		var fh sim.FlatHooks
		if !precise && hooks.OnRep != nil {
			fh.OnRep = func(k int) { hooks.OnRep(owner[k].i) }
		}
		if !precise && hooks.OnPoint != nil {
			// Stream each unpaired point's eager snapshot as soon as the
			// pool finishes it, ahead of the commit loop below (warnings,
			// checkpoint persistence), which runs in point order.
			fh.OnSpec = func(k int, fr sim.FlatResult) {
				if pt := owner[k]; len(pt.arms) == 1 && fr.Err == nil && fr.Results != nil {
					hooks.OnPoint(pt.i, newPointResult(fr.Results))
				}
			}
		}
		frs := sim.RunFlatFunc(ctx, specs, cfg.Workers, fh)
		var next []*sweepPoint
		for _, pt := range running {
			batch := frs[:len(pt.arms)]
			frs = frs[len(pt.arms):]
			pr, again, err := pt.advance(ctx, cfg, batch)
			if err == nil && !again && cfg.Checkpoint != nil {
				err = cfg.Checkpoint.store(pt.key, pr)
			}
			switch {
			case err != nil:
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", points[pt.i].Label, err)
				}
			case again:
				next = append(next, pt)
			default:
				prs[pt.i] = pr
				if (precise || len(pt.arms) == 2) && hooks.OnPoint != nil {
					hooks.OnPoint(pt.i, pr)
				}
			}
		}
		running = next
	}
	return prs, firstErr
}

// advance folds one round's batch of each of the point's arms into its
// results. It returns the point's result once the point is finished, or
// again when its precision target is unmet and the cap not yet reached.
func (pt *sweepPoint) advance(ctx context.Context, cfg Config, batch []sim.FlatResult) (pr *PointResult, again bool, err error) {
	var batchErr error
	res := make([]*sim.Results, len(batch))
	for a, fr := range batch {
		if err := ctx.Err(); err != nil && fr.Err == nil {
			// Cancelled after the simulation finished, mid-bookkeeping (for
			// example from a checkpoint save hook): stop committing further
			// points so cancellation halts the sweep at point granularity.
			return nil, false, err
		}
		if fr.Err != nil {
			// A batch whose every replication completed before the sweep
			// was cancelled is still a full result; anything else stops
			// the point.
			cancelled := errors.Is(fr.Err, context.Canceled) || errors.Is(fr.Err, context.DeadlineExceeded)
			if !cancelled || fr.Results == nil || fr.Results.Skipped > 0 || fr.Results.Failed > 0 {
				return nil, false, fr.Err
			}
			batchErr = fr.Err
		}
		res[a] = fr.Results
		if pt.acc != nil {
			if err := pt.acc[a].Merge(res[a]); err != nil {
				return nil, false, err
			}
			res[a] = pt.acc[a]
		}
	}
	precise := cfg.precisionMode()
	if precise {
		pt.acc = res
	}
	if len(res) == 2 {
		pr, pairs, met := pairResult(res[0], res[1], cfg.TargetRelHW, cfg.TargetAbsHW)
		if precise && !met {
			if res[0].Reps < cfg.MaxReps {
				return nil, batchErr == nil, batchErr
			}
			cfg.warnf("study: paired precision target (rel %g, abs %g) not reached at this sweep point after %d replications per arm",
				cfg.TargetRelHW, cfg.TargetAbsHW, res[0].Reps)
		}
		if pr.Failed > 0 {
			cfg.warnf("study: %d replications failed across the two arms of this paired sweep point; %d complete pairs remain",
				pr.Failed, pairs)
		}
		return pr, false, nil
	}
	r := res[0]
	if precise && !precision.TargetsMet(r.Estimates, cfg.TargetRelHW, cfg.TargetAbsHW) {
		if r.Reps < cfg.MaxReps {
			return nil, batchErr == nil, batchErr
		}
		cfg.warnf("study: precision target (rel %g, abs %g) not reached at this sweep point after %d replications",
			cfg.TargetRelHW, cfg.TargetAbsHW, r.Reps)
	}
	if r.Failed > 0 {
		cfg.warnf("study: %d of %d replications failed at this sweep point; estimates use the %d survivors (first failure: %v)",
			r.Failed, r.Reps, r.Completed, &r.Failures[0])
	}
	return newPointResult(r), false, nil
}

// pairResult flattens the arms of a CRN pair into its PointResult (see
// PointSpec.PairedWith). It also returns the complete pairs behind the
// first measure's delta, and whether every delta meets the (rel, abs)
// precision target on at least two pairs.
func pairResult(a, b *sim.Results, rel, abs float64) (pr *PointResult, pairs int64, met bool) {
	est := make(map[string]sim.Estimate, 5*len(a.Estimates))
	deltas := make([]sim.Estimate, len(a.Estimates))
	met = true
	for i, ea := range a.Estimates {
		v := ea.Name
		d, err := stats.PairedT(a.PerRep[i], b.PerRep[i], 0.95)
		if err != nil {
			// Fewer than two complete pairs: no paired statistics.
			d, met = stats.PairedResult{}, false
		}
		deltas[i] = sim.Estimate{Name: v + ".delta", Mean: d.Delta, HalfWidth95: d.HalfWidth, N: d.N, Min: d.Lo, Max: d.Hi}
		est[v+".a"] = ea
		est[v+".b"] = b.Estimates[i]
		est[v+".delta"] = deltas[i]
		est[v+".corr"] = sim.Estimate{Name: v + ".corr", Mean: finiteOr0(d.Corr), N: d.N}
		est[v+".vrf"] = sim.Estimate{Name: v + ".vrf", Mean: finiteOr0(d.VRF), N: d.N}
	}
	if len(deltas) > 0 {
		pairs = deltas[0].N
	}
	return &PointResult{Est: est,
		Reps:      a.Reps + b.Reps,
		Completed: a.Completed + b.Completed,
		Failed:    a.Failed + b.Failed,
		Skipped:   a.Skipped + b.Skipped,
	}, pairs, met && precision.TargetsMet(deltas, rel, abs)
}

// finiteOr0 maps NaN and ±Inf to 0 so derived statistics (correlation and
// VRF can be undefined at zero variance) stay JSON-encodable in
// checkpoints; 0 reads as "undefined" downstream.
func finiteOr0(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
