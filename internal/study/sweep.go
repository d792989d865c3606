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

// sweep collects the points of one figure and runs them on a single flat
// worker pool (sim.RunFlat): the (point, replication) pairs of the whole
// figure form one work stream, so workers stay busy to the end instead of
// paying a synchronization barrier per point. Each point's results are
// bit-identical to sim.RunContext on its spec, and so independent of the
// worker count. In precision mode the points run one after another through
// internal/precision instead.
type sweep struct {
	cfg   Config
	reqs  []sweepReq
	hooks SweepHooks
}

// sweepReq is one scheduled point: where its result goes, the error label
// that keeps sweep failures attributable, and the point's own configuration
// (which may differ from the sweep's, e.g. a capped-Reps steady-state
// point).
type sweepReq struct {
	out        **PointResult
	label      string
	cfg        Config
	params     core.Params
	until      float64
	seedOffset uint64
	vars       func(m *core.Model) []reward.Var
}

func newSweep(cfg Config) *sweep { return &sweep{cfg: cfg} }

// add schedules one sweep point; *out is assigned when run completes. label
// prefixes any error attributed to this point.
func (sw *sweep) add(out **PointResult, label string, pcfg Config, p core.Params, until float64,
	seedOffset uint64, vars func(m *core.Model) []reward.Var) {
	sw.reqs = append(sw.reqs, sweepReq{out, label, pcfg, p, until, seedOffset, vars})
}

// notifyPoint forwards one finished point to the progress hook, if any. In
// the flat path it fires from worker goroutines while other points are still
// running; SweepHooks documents the concurrency contract.
func (sw *sweep) notifyPoint(i int, pr *PointResult) {
	if sw.hooks.OnPoint != nil {
		sw.hooks.OnPoint(i, pr)
	}
}

// run executes every scheduled point. Checkpointed points are restored
// without simulating. In precision mode the remaining points run one after
// another through internal/precision — sequential stopping decides each
// point's replication count adaptively, which has no fixed flat
// decomposition — and the first error aborts the sweep; otherwise they all
// share one sim.RunFlat pool and the sweep salvages every point it can.
// Freshly computed points are persisted before run returns; a point that
// fully completed before a cancellation is persisted too, so resumed sweeps
// lose none of the finished work.
func (sw *sweep) run(ctx context.Context) error {
	var pending []*sweepReq
	var pendIdx []int
	var specs []sim.Spec
	var keys []string
	for i := range sw.reqs {
		req := &sw.reqs[i]
		var key string
		if req.cfg.Checkpoint != nil {
			key = pointKey(req.cfg, req.params, req.until, req.seedOffset)
			if pr, ok := req.cfg.Checkpoint.lookup(key); ok {
				*req.out = pr
				sw.notifyPoint(i, pr)
				continue
			}
		}
		m, err := core.Build(req.params)
		if err != nil {
			return fmt.Errorf("%s: %w", req.label, err)
		}
		specs = append(specs, sim.Spec{
			Model:          m.SAN,
			Until:          req.until,
			Reps:           req.cfg.Reps,
			Seed:           req.cfg.Seed + req.seedOffset,
			Workers:        req.cfg.Workers,
			Vars:           req.vars(m),
			RepDeadline:    req.cfg.RepDeadline,
			MaxFailureFrac: req.cfg.MaxFailureFrac,
		})
		pending = append(pending, req)
		pendIdx = append(pendIdx, i)
		keys = append(keys, key)
	}
	// commit warns about failed replications, persists the point, and
	// publishes it.
	commit := func(i int, res *sim.Results) error {
		req := pending[i]
		if res.Failed > 0 {
			req.cfg.warnf("study: %d of %d replications failed at this sweep point; estimates use the %d survivors (first failure: %v)",
				res.Failed, res.Reps, res.Completed, &res.Failures[0])
		}
		pr := newPointResult(res)
		if req.cfg.Checkpoint != nil {
			if err := req.cfg.Checkpoint.store(keys[i], pr); err != nil {
				return fmt.Errorf("%s: %w", req.label, err)
			}
		}
		*req.out = pr
		return nil
	}
	if sw.cfg.precisionMode() {
		for i, req := range pending {
			pres, err := precision.Run(ctx, precision.Spec{
				Sim:         specs[i],
				Targets:     req.cfg.targets(specs[i].Vars),
				InitialReps: req.cfg.Reps,
				MaxReps:     req.cfg.MaxReps,
			})
			if err != nil {
				return fmt.Errorf("%s: %w", req.label, err)
			}
			if !pres.Met {
				req.cfg.warnf("study: precision target (rel %g, abs %g) not reached at this sweep point after %d replications",
					req.cfg.TargetRelHW, req.cfg.TargetAbsHW, pres.Results.Reps)
			}
			if err := commit(i, pres.Results); err != nil {
				return err
			}
			sw.notifyPoint(pendIdx[i], *req.out)
		}
		return nil
	}
	if len(pending) == 0 {
		return nil
	}
	hooks := sim.FlatHooks{}
	if sw.hooks.OnRep != nil {
		hooks.OnRep = func(si int) { sw.hooks.OnRep(pendIdx[si]) }
	}
	if sw.hooks.OnPoint != nil {
		// Stream each point's eager snapshot as soon as the pool finishes it.
		// The streamed PointResult precedes the commit loop below (warnings,
		// checkpoint persistence), which still runs in deterministic order.
		hooks.OnSpec = func(si int, fr sim.FlatResult) {
			if fr.Err == nil && fr.Results != nil {
				sw.hooks.OnPoint(pendIdx[si], newPointResult(fr.Results))
			}
		}
	}
	frs := sim.RunFlatFunc(ctx, specs, sw.cfg.Workers, hooks)
	var firstErr error
	for i, req := range pending {
		fr := frs[i]
		res := fr.Results
		if err := ctx.Err(); err != nil && fr.Err == nil {
			// Cancelled after the simulation finished, mid-bookkeeping (for
			// example from a checkpoint save hook): stop committing further
			// points so cancellation halts the sweep at point granularity,
			// exactly as the sequential scheduler did.
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", req.label, err)
			}
			continue
		}
		if fr.Err != nil {
			// A point whose every replication completed before the sweep was
			// cancelled is still a full, checkpointable result; anything
			// else aborts the point (the sweep keeps salvaging the rest).
			cancelled := errors.Is(fr.Err, context.Canceled) || errors.Is(fr.Err, context.DeadlineExceeded)
			if !cancelled || res == nil || res.Skipped > 0 || res.Failed > 0 {
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", req.label, fr.Err)
				}
				continue
			}
		}
		if err := commit(i, res); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
