package study

import (
	"context"
	"fmt"
	"slices"

	"ituaval/internal/core"
	"ituaval/internal/reward"
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

// smallParams is the topology of the analytic, live and faults studies:
// two domains of one host, one application with two replicas, corruption
// multiplier 5, domain exclusion. Its chains stay generateable, and its
// live replica groups cheap enough to run thousands of protocol executions
// per sweep point.
func smallParams() core.Params {
	p := core.DefaultParams()
	p.NumDomains = 2
	p.HostsPerDomain = 1
	p.NumApps = 1
	p.RepsPerApp = 2
	p.CorruptionMult = 5
	p.Policy = core.DomainExclusion
	return p
}

// liveGrid is the model arm of the live study: the Figure-5 spread rates on
// smallParams.
func liveGrid() []PointSpec {
	const T = 6.0
	pts := make([]PointSpec, len(Fig5SpreadRates))
	for pi, spread := range Fig5SpreadRates {
		p := smallParams()
		p.DomainSpreadRate = spread
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
// model-vs-live deviation in units of the combined 95% half-widths. Both
// arms are points of one checkpointable sweep.
func Live(ctx context.Context, cfg Config) (*Figure, error) {
	fig := &Figure{ID: "L", Title: "Model versus Live Replicated Service, 2 Domains x 1 Host"}
	panels := []Panel{
		{ID: "La", Measure: "Unavailability for the first 6 hours", XLabel: "spread rate"},
		{ID: "Lb", Measure: "Unreliability for the first 6 hours", XLabel: "spread rate"},
	}
	measures := []string{"unavail", "unrel"}
	pts := liveGrid()
	n := len(pts)
	prs, err := RunSweep(ctx, cfg, slices.Concat(pts, onArm(pts, ArmLive, 1000)), SweepHooks{})
	if err != nil {
		return nil, err
	}
	layout(panels, measures, []string{"SAN simulation", "live service"}, Fig5SpreadRates, prs)
	fig.Notes = append(fig.Notes, liveNote(prs[n:]), fmt.Sprintf(
		"worst |model - live| across all points: %.2f combined half-widths (expect < 1 at 95%%)",
		worstGap(measures, prs[:n], prs[n:])))
	fig.Panels = panels
	return fig, nil
}
