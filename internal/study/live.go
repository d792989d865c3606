package study

import (
	"context"
	"fmt"
	"math"

	"ituaval/internal/core"
	"ituaval/internal/reward"
	"ituaval/internal/rsm"
)

// LiveSpreadRates is the sweep grid of the live study — the Figure-5
// intra-domain spread rates.
var LiveSpreadRates = Fig5SpreadRates

// liveParams is the configuration the live study sweeps: the same small
// two-domain topology as the analytic study, so the live service's replica
// groups stay cheap enough to run thousands of protocol executions per
// sweep point.
func liveParams(spread float64) core.Params {
	p := core.DefaultParams()
	p.NumDomains = 2
	p.HostsPerDomain = 1
	p.NumApps = 1
	p.RepsPerApp = 2
	p.CorruptionMult = 5
	p.DomainSpreadRate = spread
	p.Policy = core.DomainExclusion
	return p
}

// liveVars are the SAN counterparts of the live service's measures.
func liveVars(T float64) func(m *core.Model) []reward.Var {
	return func(m *core.Model) []reward.Var {
		return []reward.Var{
			m.Unavailability("unavail", 0, 0, T),
			m.Unreliability("unrel", 0, T),
		}
	}
}

// Live is the model-vs-measurement study: for every Figure-5 spread rate on
// the small liveParams configuration it estimates interval unavailability
// and unreliability twice — by simulating the SAN model, and by running a
// real message-passing replica group (internal/rsm) under the model's
// attack process and measuring the service a synthetic client actually
// receives — and plots both series per panel. The notes record the live
// probe count, the probe-vs-oracle divergences (zero under the worst-case
// adversary), and the worst model-vs-live deviation in units of the
// combined 95% half-widths. Live points are not checkpointed: a sweep point
// is a few thousand in-process protocol runs and recomputing it is cheap.
func Live(ctx context.Context, cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	const T = 6.0
	fig := &Figure{ID: "L", Title: "Model versus Live Replicated Service, 2 Domains x 1 Host"}
	panels := []Panel{
		{ID: "La", Measure: "Unavailability for the first 6 hours", XLabel: "spread rate"},
		{ID: "Lb", Measure: "Unreliability for the first 6 hours", XLabel: "spread rate"},
	}
	measures := []string{"unavail", "unrel"}

	// Model arm: an ordinary checkpointable SAN sweep.
	pts := make([]PointSpec, len(LiveSpreadRates))
	for pi, spread := range LiveSpreadRates {
		pts[pi] = PointSpec{Label: fmt.Sprintf("live spread=%v", spread),
			Params: liveParams(spread), Until: T, SeedOffset: uint64(6000 + pi), Vars: liveVars(T)}
	}
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
	for pi, spread := range LiveSpreadRates {
		res, err := rsm.Run(ctx, rsm.Spec{
			Params:         liveParams(spread),
			T:              T,
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
