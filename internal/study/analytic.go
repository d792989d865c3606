package study

import (
	"context"
	"fmt"
	"slices"

	"ituaval/internal/core"
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
// comfortably generateable (~3·10^5 states with spread enabled),
// smallParams. The intrusions counter latches at 1, so
// the simulated arm runs the very model the exact arm solves; Analytic is
// still set (it is inert) so the points' checkpoint keys stay as they
// were. The measures are those the exact arm computes, on application 0
// like study 3.
func analyticGrid() []PointSpec {
	const T = 10.0
	pts := make([]PointSpec, len(Fig5SpreadRates))
	for pi, spread := range Fig5SpreadRates {
		p := smallParams()
		p.DomainSpreadRate = spread
		p.Analytic = true
		pts[pi] = PointSpec{Label: fmt.Sprintf("analytic spread=%v", spread), Params: p, Until: T,
			SeedOffset: uint64(4000 + pi), Vars: fig5Vars}
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
// glance. Both arms are points of one checkpointable sweep.
func Analytic(ctx context.Context, cfg Config) (*Figure, error) {
	fig := &Figure{ID: "A", Title: "Exact (Uniformization) versus Simulated Measures, 2 Domains x 1 Host"}
	panels := []Panel{
		{ID: "Aa", Measure: "Unavailability for the first 5 hours", XLabel: "spread rate"},
		{ID: "Ab", Measure: "Unavailability for the first 10 hours", XLabel: "spread rate"},
		{ID: "Ac", Measure: "Unreliability for the first 5 hours", XLabel: "spread rate"},
		{ID: "Ad", Measure: "Unreliability for the first 10 hours", XLabel: "spread rate"},
	}
	// The exact points come first, as their series do; they run after the
	// simulated ones all the same.
	pts := analyticGrid()
	n := len(pts)
	prs, err := RunSweep(ctx, cfg, slices.Concat(onArm(pts, ArmExact, 0), pts), SweepHooks{})
	if err != nil {
		return nil, err
	}
	layout(panels, fig5MeasureNames, []string{"exact (uniformization)", "simulation"}, Fig5SpreadRates, prs)
	for pi, spread := range Fig5SpreadRates {
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"spread %g: %d states, %d transitions", spread, prs[pi].Counts["states"], prs[pi].Counts["transitions"]))
	}
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"worst |simulated - exact| across all points: %.2f simulation half-widths (expect ~1 at 95%%)",
		worstGap(fig5MeasureNames, prs[n:], prs[:n])))
	fig.Panels = panels
	return fig, nil
}
