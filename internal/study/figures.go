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
	for ai, apps := range Fig3Apps {
		series := make([]Series, len(panels))
		for i := range series {
			series[i].Name = fmt.Sprintf("%d applications", apps)
		}
		for pi, hpd := range Fig3HostsPerDomain {
			pr := prs[ai*len(Fig3HostsPerDomain)+pi]
			x := float64(hpd)
			AppendPoint(&series[0], x, "unavail", pr)
			AppendPoint(&series[1], x, "unrel", pr)
			AppendPoint(&series[2], x, "corrfrac", pr)
			AppendPoint(&series[3], x, "exclfrac", pr)
		}
		for i := range panels {
			panels[i].Series = append(panels[i].Series, series[i])
		}
	}
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
	s5 := Series{Name: "for interval [0,5]"}
	s10 := Series{Name: "for interval [0,10]"}
	r5 := Series{Name: "for interval [0,5]"}
	r10 := Series{Name: "for interval [0,10]"}
	ss := Series{Name: "steady state"}
	e5 := Series{Name: "at time 5"}
	e10 := Series{Name: "at time 10"}
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
	for pi, hpd := range Fig4HostsPerDomain {
		x := float64(hpd)
		AppendPoint(&s5, x, "u5", prs[pi])
		AppendPoint(&s10, x, "u10", prs[pi])
		AppendPoint(&r5, x, "r5", prs[pi])
		AppendPoint(&r10, x, "r10", prs[pi])
		AppendPoint(&ss, x, "cf", prSSs[pi])
		AppendPoint(&e5, x, "e5", prs[pi])
		AppendPoint(&e10, x, "e10", prs[pi])
	}
	panels[0].Series = []Series{s5, s10}
	panels[1].Series = []Series{r5, r10}
	panels[2].Series = []Series{ss}
	panels[3].Series = []Series{e5, e10}
	fig.Panels = panels
	return fig, nil
}

// Fig5SpreadRates are the sweep points of study 3.
var Fig5SpreadRates = []float64{0, 2, 4, 6, 8, 10}

// fig5Policies are the series of study 3, in grid order.
var fig5Policies = []core.Policy{core.HostExclusion, core.DomainExclusion}

// fig5MeasureNames are the measures of study 3, in order.
var fig5MeasureNames = []string{"u5", "u10", "r5", "r10"}

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
				Params: p, Until: T, SeedOffset: uint64(3000 + 100*si + pi), Vars: func(m *core.Model) []reward.Var {
					return []reward.Var{
						m.Unavailability("u5", 0, 0, 5),
						m.Unavailability("u10", 0, 0, 10),
						m.Unreliability("r5", 0, 5),
						m.Unreliability("r10", 0, 10),
					}
				}})
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
	for si, policy := range fig5Policies {
		name := map[core.Policy]string{
			core.HostExclusion:   "Host exclusion",
			core.DomainExclusion: "Domain exclusion",
		}[policy]
		series := [4]Series{{Name: name}, {Name: name}, {Name: name}, {Name: name}}
		for pi, spread := range Fig5SpreadRates {
			pr := prs[si*len(Fig5SpreadRates)+pi]
			for i, v := range fig5MeasureNames {
				AppendPoint(&series[i], spread, v, pr)
			}
		}
		for i := range panels {
			panels[i].Series = append(panels[i].Series, series[i])
		}
	}
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
	var host, dom, delta [4]Series
	for i := range panels {
		host[i].Name = "Host exclusion"
		dom[i].Name = "Domain exclusion"
		delta[i].Name = "delta (host - domain)"
	}
	prs, err := RunSweep(ctx, cfg, fig5PairedGrid(), SweepHooks{})
	if err != nil {
		return nil, err
	}
	var meanCorr, meanVRF [4]float64
	n := len(Fig5SpreadRates)
	for pi, spread := range Fig5SpreadRates {
		pr := prs[pi]
		for i, v := range fig5MeasureNames {
			AppendPoint(&host[i], spread, v+".a", pr)
			AppendPoint(&dom[i], spread, v+".b", pr)
			AppendPoint(&delta[i], spread, v+".delta", pr)
			meanCorr[i] += pr.Est[v+".corr"].Mean / float64(n)
			meanVRF[i] += pr.Est[v+".vrf"].Mean / float64(n)
		}
	}
	for i := range panels {
		panels[i].Series = []Series{host[i], dom[i], delta[i]}
		crossings := precision.Crossovers(delta[i].X, delta[i].Y, delta[i].HW)
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
			panels[i].ID, meanCorr[i], meanVRF[i]))
	}
	fig.Panels = panels
	return fig, nil
}
