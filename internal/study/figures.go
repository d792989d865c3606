package study

import (
	"context"
	"fmt"

	"ituaval/internal/core"
	"ituaval/internal/precision"
	"ituaval/internal/reward"
)

// Fig3HostsPerDomain are the sweep points of study 1: 12 hosts distributed
// into 12, 6, 4, 3, 2, or 1 domains.
var Fig3HostsPerDomain = []int{1, 2, 3, 4, 6, 12}

// Fig3Apps are the application counts of study 1.
var Fig3Apps = []int{2, 4, 6, 8}

// fig3Grid is the sweep of study 1: for every application count, 12 hosts
// split into 12/hpd domains of hpd hosts, 7 replicas per application, first
// 5 hours. Points are application-major.
func fig3Grid() []PointSpec {
	const T = 5.0
	vars := func(m *core.Model) []reward.Var {
		return []reward.Var{
			m.Unavailability("unavail", 0, 0, T),
			m.Unreliability("unrel", 0, T),
			m.FracCorruptHostsAtExclusion("corrfrac", T),
			m.FracDomainsExcluded("exclfrac", T),
		}
	}
	var pts []PointSpec
	for _, apps := range Fig3Apps {
		for pi, hpd := range Fig3HostsPerDomain {
			p := core.DefaultParams()
			p.NumDomains = 12 / hpd
			p.HostsPerDomain = hpd
			p.NumApps = apps
			p.RepsPerApp = 7
			// Per-entity rates are anchored at the 4-application baseline
			// (12 hosts, 28 replicas), so the per-replica intrusion
			// probability does not depend on the number of applications —
			// the convention under which the paper observes that
			// "unavailability ... does not change much with an increase in
			// the number of applications".
			p.RateBaseHosts = 12
			p.RateBaseReplicas = 28
			pts = append(pts, PointSpec{Label: fmt.Sprintf("fig3 apps=%d hpd=%d", apps, hpd),
				Params: p, Until: T, SeedOffset: uint64(1000*apps + pi), Vars: vars})
		}
	}
	return pts
}

// Fig3 reproduces Figure 3 (Section 4.1) over fig3Grid.
func Fig3(ctx context.Context, cfg Config) (*Figure, error) {
	fig := &Figure{ID: "3", Title: "Variations in Measures for Different Distributions of 12 Hosts (first 5 h)"}
	panels := []Panel{
		{ID: "3a", Measure: "Unavailability for first 5 hours", XLabel: "hosts/domain"},
		{ID: "3b", Measure: "Unreliability for first 5 hours", XLabel: "hosts/domain"},
		{ID: "3c", Measure: "Fraction of corrupt hosts in an excluded domain", XLabel: "hosts/domain"},
		{ID: "3d", Measure: "Fraction of domains excluded at 5 h", XLabel: "hosts/domain"},
	}
	prs, err := RunSweep(ctx, cfg, fig3Grid(), SweepHooks{})
	if err != nil {
		return nil, err
	}
	var names []string
	for _, apps := range Fig3Apps {
		names = append(names, fmt.Sprintf("%d applications", apps))
	}
	layout(panels, []string{"unavail", "unrel", "corrfrac", "exclfrac"}, names, Fig3HostsPerDomain, prs)
	fig.Panels = panels
	return fig, nil
}

// Fig4HostsPerDomain are the sweep points of study 2: 10 domains with 1-4
// hosts each.
var Fig4HostsPerDomain = []int{1, 2, 3, 4}

// fig4Grid is the sweep of study 2: 10 domains of 1-4 hosts, 4 applications
// with 7 replicas each, per-host intrusion probability held constant across
// the sweep (RateBaseHosts pins the rate denominators to the 10-host
// baseline), as the paper states. The transient points over [0, 10] come
// first, then one steady-state point per configuration: the model has no
// repair, so the long-horizon average over all exclusion events is the
// absorbed value.
func fig4Grid() []PointSpec {
	const T, steadyT = 10.0, 120.0
	var pts, ssPts []PointSpec
	for pi, hpd := range Fig4HostsPerDomain {
		p := core.DefaultParams()
		p.NumDomains = 10
		p.HostsPerDomain = hpd
		p.NumApps = 4
		p.RepsPerApp = 7
		p.RateBaseHosts = 10
		pts = append(pts, PointSpec{Label: fmt.Sprintf("fig4 hpd=%d", hpd), Params: p, Until: T,
			SeedOffset: uint64(2000 + pi), Vars: func(m *core.Model) []reward.Var {
				return []reward.Var{
					m.Unavailability("u5", 0, 0, 5),
					m.Unavailability("u10", 0, 0, 10),
					m.Unreliability("r5", 0, 5),
					m.Unreliability("r10", 0, 10),
					m.FracDomainsExcluded("e5", 5),
					m.FracDomainsExcluded("e10", 10),
				}
			}})
		ssPts = append(ssPts, PointSpec{Label: fmt.Sprintf("fig4 steady hpd=%d", hpd), Params: p, Until: steadyT,
			SeedOffset: uint64(2100 + pi), Vars: func(m *core.Model) []reward.Var {
				return []reward.Var{m.FracCorruptHostsAtExclusion("cf", steadyT)}
			}})
	}
	return append(pts, ssPts...)
}

// Fig4 reproduces Figure 4 (Section 4.2) over fig4Grid. The steady-state
// points run as a second sweep with replications capped at 500.
func Fig4(ctx context.Context, cfg Config) (*Figure, error) {
	fig := &Figure{ID: "4", Title: "Variations in Measures for Different Numbers of Hosts in 10 Domains"}
	panels := []Panel{
		{ID: "4a", Measure: "Unavailability", XLabel: "hosts/domain"},
		{ID: "4b", Measure: "Unreliability", XLabel: "hosts/domain"},
		{ID: "4c", Measure: "Fraction of corrupt hosts in an excluded domain (steady state)", XLabel: "hosts/domain"},
		{ID: "4d", Measure: "Fraction of domains excluded", XLabel: "hosts/domain"},
	}
	cfg = cfg.withDefaults()
	longCfg := cfg
	if longCfg.Reps > 500 {
		longCfg.Reps = 500
	}
	pts, n := fig4Grid(), len(Fig4HostsPerDomain)
	prs, err := RunSweep(ctx, cfg, pts[:n], SweepHooks{})
	if err != nil {
		return nil, err
	}
	prSSs, err := RunSweep(ctx, longCfg, pts[n:], SweepHooks{})
	if err != nil {
		return nil, err
	}
	intervals := []string{"for interval [0,5]", "for interval [0,10]"}
	panels[0].Series = curves(intervals, []string{"u5", "u10"}, Fig4HostsPerDomain, prs)
	panels[1].Series = curves(intervals, []string{"r5", "r10"}, Fig4HostsPerDomain, prs)
	panels[2].Series = curves([]string{"steady state"}, []string{"cf"}, Fig4HostsPerDomain, prSSs)
	panels[3].Series = curves([]string{"at time 5", "at time 10"}, []string{"e5", "e10"}, Fig4HostsPerDomain, prs)
	fig.Panels = panels
	return fig, nil
}

// Fig5SpreadRates are the sweep points of study 3.
var Fig5SpreadRates = []float64{0, 2, 4, 6, 8, 10}

// fig5Policies are the series of study 3, in grid order.
var fig5Policies = []core.Policy{core.HostExclusion, core.DomainExclusion}

// fig5MeasureNames are the measures of study 3, in order.
var fig5MeasureNames = []string{"u5", "u10", "r5", "r10"}

// fig5Vars builds the measures of study 3, fig5MeasureNames.
func fig5Vars(m *core.Model) []reward.Var {
	return []reward.Var{
		m.Unavailability("u5", 0, 0, 5),
		m.Unavailability("u10", 0, 0, 10),
		m.Unreliability("r5", 0, 5),
		m.Unreliability("r10", 0, 10),
	}
}

// fig5Grid is the sweep of study 3: 10 domains of 3 hosts, 4 applications
// with 7 replicas, corruption multiplier 5, over the intra-domain spread
// rates under host exclusion, then under domain exclusion.
func fig5Grid() []PointSpec {
	const T = 10.0
	var pts []PointSpec
	for si, policy := range fig5Policies {
		for pi, spread := range Fig5SpreadRates {
			p := core.DefaultParams()
			p.NumDomains = 10
			p.HostsPerDomain = 3
			p.NumApps = 4
			p.RepsPerApp = 7
			p.CorruptionMult = 5
			p.DomainSpreadRate = spread
			p.Policy = policy
			pts = append(pts, PointSpec{Label: fmt.Sprintf("fig5 %v spread=%v", policy, spread),
				Params: p, Until: T, SeedOffset: uint64(3000 + 100*si + pi), Vars: fig5Vars})
		}
	}
	return pts
}

// Fig5 reproduces Figure 5 (Section 4.3) over fig5Grid: domain-exclusion
// versus host-exclusion for varying intra-domain attack-spread rates.
func Fig5(ctx context.Context, cfg Config) (*Figure, error) {
	fig := &Figure{ID: "5", Title: "Unavailability and Unreliability for Different Exclusion Algorithms"}
	panels := []Panel{
		{ID: "5a", Measure: "Unavailability for the first 5 hours", XLabel: "spread rate"},
		{ID: "5b", Measure: "Unavailability for the first 10 hours", XLabel: "spread rate"},
		{ID: "5c", Measure: "Unreliability for the first 5 hours", XLabel: "spread rate"},
		{ID: "5d", Measure: "Unreliability for the first 10 hours", XLabel: "spread rate"},
	}
	prs, err := RunSweep(ctx, cfg, fig5Grid(), SweepHooks{})
	if err != nil {
		return nil, err
	}
	// One series per policy, in fig5Policies order.
	layout(panels, fig5MeasureNames, []string{"Host exclusion", "Domain exclusion"}, Fig5SpreadRates, prs)
	fig.Panels = panels
	return fig, nil
}

// fig5PairedGrid is the CRN-paired sweep of study 3: at each spread rate,
// fig5Grid's host-exclusion point (arm A) paired with its domain-exclusion
// point (arm B), at seed offsets 3500+i.
func fig5PairedGrid() []PointSpec {
	pts, n := fig5Grid(), len(Fig5SpreadRates)
	paired := make([]PointSpec, n)
	for pi, spread := range Fig5SpreadRates {
		// Host exclusion is fig5Grid's first series, domain exclusion its
		// second.
		p := pts[pi]
		p.Label = fmt.Sprintf("fig5-paired spread=%v", spread)
		p.SeedOffset = uint64(3500 + pi)
		p.PairedWith = &pts[n+pi].Params
		paired[pi] = p
	}
	return paired
}

// Fig5Paired is the variance-reduced reading of study 3 over
// fig5PairedGrid: instead of two independent sweeps, each spread rate runs
// its host- against its domain-exclusion point on common random numbers
// and reports the paired delta with its paired-t interval — the
// statistically sound way to resolve where the two policy curves of
// Figure 5 cross. Panels carry the two marginal series plus the delta
// series; crossover locations estimated from the delta sign changes
// (linear interpolation, flagged resolved when the bracketing deltas clear
// their intervals) land in Figure.Notes together with the observed CRN
// variance-reduction factors.
func Fig5Paired(ctx context.Context, cfg Config) (*Figure, error) {
	fig := &Figure{ID: "5p", Title: "Exclusion Algorithms Compared on Common Random Numbers (host - domain deltas)"}
	panels := []Panel{
		{ID: "5pa", Measure: "Unavailability for the first 5 hours", XLabel: "spread rate"},
		{ID: "5pb", Measure: "Unavailability for the first 10 hours", XLabel: "spread rate"},
		{ID: "5pc", Measure: "Unreliability for the first 5 hours", XLabel: "spread rate"},
		{ID: "5pd", Measure: "Unreliability for the first 10 hours", XLabel: "spread rate"},
	}
	prs, err := RunSweep(ctx, cfg, fig5PairedGrid(), SweepHooks{})
	if err != nil {
		return nil, err
	}
	n := len(Fig5SpreadRates)
	for i, v := range fig5MeasureNames {
		panels[i].Series = curves([]string{"Host exclusion", "Domain exclusion", "delta (host - domain)"},
			[]string{v + ".a", v + ".b", v + ".delta"}, Fig5SpreadRates, prs)
		var meanCorr, meanVRF float64
		for _, pr := range prs {
			meanCorr += pr.Est[v+".corr"].Mean / float64(n)
			meanVRF += pr.Est[v+".vrf"].Mean / float64(n)
		}
		delta := panels[i].Series[2]
		crossings := precision.Crossovers(delta.X, delta.Y, delta.HW)
		for _, c := range crossings {
			state := "within noise"
			if c.Resolved {
				state = "CI-resolved"
			}
			fig.Notes = append(fig.Notes, fmt.Sprintf(
				"%s: delta (host - domain) changes sign near spread %.2f (%s)", panels[i].ID, c.X, state))
		}
		if len(crossings) == 0 {
			fig.Notes = append(fig.Notes, fmt.Sprintf(
				"%s: delta (host - domain) keeps its sign across the sweep", panels[i].ID))
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%s: CRN pairing: mean correlation %.2f, mean variance-reduction factor %.1f",
			panels[i].ID, meanCorr, meanVRF))
	}
	fig.Panels = panels
	return fig, nil
}
