package study

import (
	"context"
	"fmt"
	"math"

	"ituaval/internal/core"
	"ituaval/internal/reward"
	"ituaval/internal/rsm"
)

// liveVars are the SAN counterparts of the live service's measures.
func liveVars(T float64) func(m *core.Model) []reward.Var {
	return func(m *core.Model) []reward.Var {
		return []reward.Var{
			m.Unavailability("unavail", 0, 0, T),
			m.Unreliability("unrel", 0, T),
		}
	}
}

// liveGrid is the model arm of the live study: the Figure-5 spread rates on
// the same small two-domain topology as the analytic study, so the live
// service's replica groups stay cheap enough to run thousands of protocol
// executions per sweep point.
func liveGrid() []PointSpec {
	const T = 6.0
	pts := make([]PointSpec, len(Fig5SpreadRates))
	for pi, spread := range Fig5SpreadRates {
		p := core.DefaultParams()
		p.NumDomains = 2
		p.HostsPerDomain = 1
		p.NumApps = 1
		p.RepsPerApp = 2
		p.CorruptionMult = 5
		p.DomainSpreadRate = spread
		p.Policy = core.DomainExclusion
		pts[pi] = PointSpec{Label: fmt.Sprintf("live spread=%v", spread),
			Params: p, Until: T, SeedOffset: uint64(6000 + pi), Vars: liveVars(T)}
	}
	return pts
}

// Live is the model-vs-measurement study: at every point of liveGrid it
// estimates interval unavailability and unreliability twice — by
// simulating the SAN model, and by running a real message-passing replica
// group (internal/rsm) under the model's attack process and measuring the
// service a synthetic client actually receives — and plots both series per
// panel. The notes record the live probe count, the probe-vs-oracle
// divergences (zero under the worst-case adversary), and the worst
// model-vs-live deviation in units of the combined 95% half-widths. Live
// points are not checkpointed: a sweep point is a few thousand in-process
// protocol runs and recomputing it is cheap.
func Live(ctx context.Context, cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	fig := &Figure{ID: "L", Title: "Model versus Live Replicated Service, 2 Domains x 1 Host"}
	panels := []Panel{
		{ID: "La", Measure: "Unavailability for the first 6 hours", XLabel: "spread rate"},
		{ID: "Lb", Measure: "Unreliability for the first 6 hours", XLabel: "spread rate"},
	}
	measures := []string{"unavail", "unrel"}

	// Model arm: an ordinary checkpointable SAN sweep.
	pts := liveGrid()
	prs, err := RunSweep(ctx, cfg, pts, SweepHooks{})
	if err != nil {
		return nil, err
	}

	// Live arm: fault-injected replica groups, probed by a synthetic client.
	var liveSeries, sanSeries [2]Series
	for i := range panels {
		liveSeries[i].Name = "live service"
		sanSeries[i].Name = "SAN simulation"
	}
	var probes, divergences int64
	worstSigma := 0.0
	for pi, pt := range pts {
		spread := pt.Params.DomainSpreadRate
		res, err := rsm.Run(ctx, rsm.Spec{
			Params:         pt.Params,
			T:              pt.Until,
			Reps:           cfg.Reps,
			Seed:           cfg.Seed + uint64(7000+pi),
			Workers:        cfg.Workers,
			RepDeadline:    cfg.RepDeadline,
			MaxFailureFrac: cfg.MaxFailureFrac,
		})
		if err != nil {
			return nil, fmt.Errorf("live spread=%v: %w", spread, err)
		}
		if res.Failed > 0 {
			cfg.warnf("live spread=%v: %d of %d replications failed (%v)",
				spread, res.Failed, cfg.Reps, res.Failures)
		}
		probes += res.Probes
		divergences += res.Divergences
		for i, acc := range []interface {
			Mean() float64
			HalfWidth(float64) float64
		}{&res.Unavail, &res.Unrel} {
			appendCell(&liveSeries[i], spread, acc.Mean(), acc.HalfWidth(0.95),
				int64(res.Reps), cfg.Reps, res.Reps, res.Failed, 0)
			AppendPoint(&sanSeries[i], spread, measures[i], prs[pi])
			e := prs[pi].Est[measures[i]]
			if hw := e.HalfWidth95 + acc.HalfWidth(0.95); hw > 0 {
				if sig := math.Abs(e.Mean-acc.Mean()) / hw; sig > worstSigma {
					worstSigma = sig
				}
			}
		}
	}
	for i := range panels {
		panels[i].Series = []Series{sanSeries[i], liveSeries[i]}
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("live arm: %d client probes, %d oracle divergences (expect 0)", probes, divergences),
		fmt.Sprintf("worst |model - live| across all points: %.2f combined half-widths (expect < 1 at 95%%)", worstSigma))
	fig.Panels = panels
	return fig, nil
}
