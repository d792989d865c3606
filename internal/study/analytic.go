package study

import (
	"context"
	"fmt"
	"math"

	"ituaval/internal/core"
	"ituaval/internal/exact"
	"ituaval/internal/reward"
)

// AnalyticAnchorParams is the full-scale exact anchor made reachable by
// symmetry lumping (PR 9): the Figure-5 topology at four domains of two
// hosts, three applications with two replicas each, corruption multiplier
// 5, at the spread-0 grid point with the host- and manager-attack splits
// zeroed (replica attacks and host false alarms remain, so corruptions and
// exclusions still occur). Its full chain exceeds 2^22 states — far beyond
// the default generation cap — while the S_4 x (S_2)^4 quotient is about
// 1.59 million states, generated and solved in minutes. The lumpcheck CI
// lane (integrity.TestCrossCheckLumpedAnchor) solves this configuration
// exactly and requires the values to land inside the union of the SAN and
// direct simulators' 95% confidence intervals.
func AnalyticAnchorParams() core.Params {
	p := core.DefaultParams()
	p.NumDomains = 4
	p.HostsPerDomain = 2
	p.NumApps = 3
	p.RepsPerApp = 2
	p.CorruptionMult = 5
	p.DomainSpreadRate = 0
	p.SystemSpreadRate = 0
	p.AttackSplitHost = 0
	p.AttackSplitMgr = 0
	p.Policy = core.DomainExclusion
	p.Analytic = true
	return p
}

// AnalyticAnchorMaxStates comfortably bounds the anchor's lumped quotient
// (~1.59M states; the full chain blows through 2^22).
const AnalyticAnchorMaxStates = 1 << 21

// analyticGrid is the simulated arm of the analytic study: the Figure-5
// spread rates on the largest ITUA configuration whose CTMC stays
// comfortably generateable (~3·10^5 states with spread enabled): two
// domains of one host, one application with two replicas, corruption
// multiplier 5, domain exclusion. The intrusions counter latches at 1, so
// the simulated arm runs the very model the exact arm solves; Analytic is
// still set (it is inert) so the points' checkpoint keys stay as they
// were. The measures are those the exact arm computes, on application 0
// like study 3.
func analyticGrid() []PointSpec {
	const T = 10.0
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
		p.Analytic = true
		pts[pi] = PointSpec{Label: fmt.Sprintf("analytic spread=%v", spread), Params: p, Until: T,
			SeedOffset: uint64(4000 + pi), Vars: func(m *core.Model) []reward.Var {
				return []reward.Var{
					m.Unavailability("u5", 0, 0, 5),
					m.Unavailability("u10", 0, 0, 10),
					m.Unreliability("r5", 0, 5),
					m.Unreliability("r10", 0, 10),
				}
			}}
	}
	return pts
}

// Analytic is the exact-vs-simulated study: at every point of analyticGrid
// it computes interval unavailability and unreliability twice —
// numerically (state-space generation plus uniformization, internal/exact;
// no sampling error) and by the ordinary simulation sweep — and plots both
// series per panel. The exact series carries zero half-widths; the notes
// record the chain sizes and the worst simulated deviation in units of the
// simulation's 95% half-width, so a bias in either path is visible at a
// glance. Exact values are not checkpointed: recomputing them is cheap and
// they are deterministic.
func Analytic(ctx context.Context, cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	fig := &Figure{ID: "A", Title: "Exact (Uniformization) versus Simulated Measures, 2 Domains x 1 Host"}
	panels := []Panel{
		{ID: "Aa", Measure: "Unavailability for the first 5 hours", XLabel: "spread rate"},
		{ID: "Ab", Measure: "Unavailability for the first 10 hours", XLabel: "spread rate"},
		{ID: "Ac", Measure: "Unreliability for the first 5 hours", XLabel: "spread rate"},
		{ID: "Ad", Measure: "Unreliability for the first 10 hours", XLabel: "spread rate"},
	}

	// Simulated arm: an ordinary checkpointable sweep.
	pts := analyticGrid()
	prs, err := RunSweep(ctx, cfg, pts, SweepHooks{})
	if err != nil {
		return nil, err
	}

	// Exact arm: generate and solve each configuration's CTMC.
	var exSeries, simSeries [4]Series
	for i := range panels {
		exSeries[i].Name = "exact (uniformization)"
		simSeries[i].Name = "simulation"
	}
	worstSigma := 0.0
	for pi, pt := range pts {
		spread := pt.Params.DomainSpreadRate
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s, err := exact.NewSolver(pt.Params, exact.Options{Workers: cfg.Workers})
		if err != nil {
			return nil, fmt.Errorf("analytic spread=%v: %w", spread, err)
		}
		ex := make(map[string]float64, 4)
		for _, horizon := range []float64{5, 10} {
			u, err := s.Unavailability(0, horizon)
			if err != nil {
				return nil, fmt.Errorf("analytic spread=%v unavailability[0,%g]: %w", spread, horizon, err)
			}
			r, err := s.Unreliability(0, horizon)
			if err != nil {
				return nil, fmt.Errorf("analytic spread=%v unreliability[0,%g]: %w", spread, horizon, err)
			}
			ex[fmt.Sprintf("u%g", horizon)] = u
			ex[fmt.Sprintf("r%g", horizon)] = r
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"spread %g: %d states, %d transitions", spread, s.C.NumStates(), s.C.NumTransitions()))
		for i, name := range fig5MeasureNames {
			appendCell(&exSeries[i], spread, ex[name], 0, 0, 0, 0, 0, 0)
			AppendPoint(&simSeries[i], spread, name, prs[pi])
			if e := prs[pi].Est[name]; e.HalfWidth95 > 0 {
				if sig := math.Abs(e.Mean-ex[name]) / e.HalfWidth95; sig > worstSigma {
					worstSigma = sig
				}
			}
		}
	}
	for i := range panels {
		panels[i].Series = []Series{exSeries[i], simSeries[i]}
	}
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"worst |simulated - exact| across all points: %.2f simulation half-widths (expect ~1 at 95%%)", worstSigma))
	fig.Panels = panels
	return fig, nil
}
