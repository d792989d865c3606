package study

import (
	"context"
	"errors"
	"fmt"

	"ituaval/internal/core"
	"ituaval/internal/precision"
	"ituaval/internal/reward"
	"ituaval/internal/sim"
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
}

// SweepHooks are optional progress callbacks for RunSweep. Without a
// precision target both hooks fire from simulation worker goroutines while
// other points are still running, so they must be safe for concurrent use
// and must not block; under a precision target OnPoint fires synchronously
// from RunSweep's own goroutine.
type SweepHooks struct {
	// OnRep is called after every finished replication (completed, failed,
	// or drained after cancellation) of the given point index. It is not
	// called under a precision target, whose replication schedule is
	// adaptive.
	OnRep func(point int)
	// OnPoint is called once per point with its aggregated result: when a
	// checkpointed point is restored without simulating; without a
	// precision target, when the worker pool finishes the point's last
	// replication (before the point's checkpoint is stored); under a
	// precision target, after the point's checkpoint is stored, in point
	// order within a round. Points that error are not reported.
	OnPoint func(point int, pr *PointResult)
}

// sweepPoint is a point RunSweep still has to run: its index, checkpoint
// key and simulation spec, plus, under a precision target, the batches it
// has merged so far.
type sweepPoint struct {
	i    int
	key  string
	spec sim.Spec
	acc  *sim.Results
}

// RunSweep executes a set of sweep points under one configuration; it is
// how every registered figure runner and every compiled scenario runs its
// points. The points run in rounds, and each round is one sim.RunFlatFunc
// call over the next batch of every point still running, so their (point,
// replication) pairs share one worker pool without a barrier per point.
//
// Without a precision target the sweep is one round of cfg.Reps
// replications per point. With one, each point starts with a batch of
// cfg.Reps and doubles its cumulative replication count round by round
// until every measure meets the target or cfg.MaxReps is reached; a round
// runs only the points still short of their target. Batches keep
// per-replication values and merge in replication order, so a point equals
// one run of its final replication count. Either way every result is
// bit-identical at every worker count.
//
// Points already present in cfg.Checkpoint are restored without
// simulating, and each computed point is persisted before RunSweep returns,
// so an interrupted sweep resumed with the same checkpoint loses none of
// its finished work; a point whose replications all completed before a
// cancellation counts as finished. A point whose batch fails or is
// cancelled stops; the other points run on, and RunSweep returns the first
// error.
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
		m, err := core.Build(p.Params)
		if err != nil {
			return prs, fmt.Errorf("%s: %w", p.Label, err)
		}
		vars := p.Vars(m)
		var key string
		if cfg.Checkpoint != nil {
			key = pointKey(cfg, p.Params, p.Until, p.SeedOffset, vars)
			if pr, ok := cfg.Checkpoint.lookup(key); ok {
				prs[i] = pr
				if hooks.OnPoint != nil {
					hooks.OnPoint(i, pr)
				}
				continue
			}
		}
		running = append(running, &sweepPoint{i: i, key: key, spec: sim.Spec{
			Model:          m.SAN,
			Until:          p.Until,
			Reps:           cfg.Reps,
			Seed:           cfg.Seed + p.SeedOffset,
			Workers:        cfg.Workers,
			Vars:           vars,
			RepDeadline:    cfg.RepDeadline,
			MaxFailureFrac: cfg.MaxFailureFrac,
			KeepPerRep:     precise,
		}})
	}

	var firstErr error
	fail := func(pt *sweepPoint, err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", points[pt.i].Label, err)
		}
	}
	for len(running) > 0 {
		specs := make([]sim.Spec, len(running))
		for k, pt := range running {
			specs[k] = pt.spec
			if pt.acc != nil {
				specs[k].FirstRep = pt.acc.Reps
				specs[k].Reps = precision.NextBatch(pt.acc.Reps, cfg.Reps, cfg.MaxReps)
			}
		}
		var fh sim.FlatHooks
		if !precise && hooks.OnRep != nil {
			fh.OnRep = func(k int) { hooks.OnRep(running[k].i) }
		}
		if !precise && hooks.OnPoint != nil {
			// Stream each point's eager snapshot as soon as the pool
			// finishes it, ahead of the commit loop below (warnings,
			// checkpoint persistence), which runs in point order.
			fh.OnSpec = func(k int, fr sim.FlatResult) {
				if fr.Err == nil && fr.Results != nil {
					hooks.OnPoint(running[k].i, newPointResult(fr.Results))
				}
			}
		}
		frs := sim.RunFlatFunc(ctx, specs, cfg.Workers, fh)
		var next []*sweepPoint
		for k, pt := range running {
			fr := frs[k]
			if err := ctx.Err(); err != nil && fr.Err == nil {
				// Cancelled after the simulation finished, mid-bookkeeping
				// (for example from a checkpoint save hook): stop
				// committing further points so cancellation halts the
				// sweep at point granularity.
				fail(pt, err)
				continue
			}
			res := fr.Results
			if fr.Err != nil {
				// A batch whose every replication completed before the
				// sweep was cancelled is still a full result; anything
				// else stops the point.
				cancelled := errors.Is(fr.Err, context.Canceled) || errors.Is(fr.Err, context.DeadlineExceeded)
				if !cancelled || res == nil || res.Skipped > 0 || res.Failed > 0 {
					fail(pt, fr.Err)
					continue
				}
			}
			if precise {
				if pt.acc != nil {
					if err := pt.acc.Merge(res); err != nil {
						fail(pt, err)
						continue
					}
					res = pt.acc
				}
				pt.acc = res
				if !precision.TargetsMet(cfg.targets(pt.spec.Vars), res) {
					if res.Reps < cfg.MaxReps {
						if fr.Err != nil {
							fail(pt, fr.Err)
						} else {
							next = append(next, pt)
						}
						continue
					}
					cfg.warnf("study: precision target (rel %g, abs %g) not reached at this sweep point after %d replications",
						cfg.TargetRelHW, cfg.TargetAbsHW, res.Reps)
				}
			}
			if res.Failed > 0 {
				cfg.warnf("study: %d of %d replications failed at this sweep point; estimates use the %d survivors (first failure: %v)",
					res.Failed, res.Reps, res.Completed, &res.Failures[0])
			}
			pr := newPointResult(res)
			if cfg.Checkpoint != nil {
				if err := cfg.Checkpoint.store(pt.key, pr); err != nil {
					fail(pt, err)
					continue
				}
			}
			prs[pt.i] = pr
			if precise && hooks.OnPoint != nil {
				hooks.OnPoint(pt.i, pr)
			}
		}
		running = next
	}
	return prs, firstErr
}
