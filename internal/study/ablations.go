package study

import (
	"context"
	"fmt"

	"ituaval/internal/core"
	"ituaval/internal/ituadirect"
	"ituaval/internal/mc"
	"ituaval/internal/reward"
	"ituaval/internal/san"
	"ituaval/internal/sim"
	"ituaval/internal/stats"
)

// xvalGrid is the SAN arm of the cross-validation: the 4×2 baseline under
// domain exclusion, then under host exclusion.
func xvalGrid() []PointSpec {
	const T = 6.0
	var pts []PointSpec
	for i, policy := range []core.Policy{core.DomainExclusion, core.HostExclusion} {
		p := core.DefaultParams()
		p.NumDomains = 4
		p.HostsPerDomain = 2
		p.NumApps = 3
		p.RepsPerApp = 4
		p.Policy = policy
		pts = append(pts, PointSpec{Label: fmt.Sprintf("crossval policy=%v", policy), Params: p, Until: T,
			SeedOffset: uint64(4000 + i), Vars: func(m *core.Model) []reward.Var {
				return []reward.Var{
					m.Unavailability("unavail", 0, 0, T),
					m.Unreliability("unrel", 0, T),
					m.FracDomainsExcluded("excl", T),
				}
			}})
	}
	return pts
}

// CrossValidation (experiment X1) compares the SAN model against the
// independent direct simulator at every point of xvalGrid, returning a
// figure with one panel per measure, each holding a "SAN" and a "direct"
// series indexed by policy (x = 1 for domain exclusion, 2 for host
// exclusion).
func CrossValidation(ctx context.Context, cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	fig := &Figure{ID: "X1", Title: "SAN model vs independent direct simulator"}
	panels := []Panel{
		{ID: "X1-unavail", Measure: "Unavailability [0,6]", XLabel: "policy (1=domain 2=host)"},
		{ID: "X1-unrel", Measure: "Unreliability [0,6]", XLabel: "policy (1=domain 2=host)"},
		{ID: "X1-excl", Measure: "Fraction domains excluded at 6", XLabel: "policy (1=domain 2=host)"},
	}
	sanS := [3]Series{{Name: "SAN"}, {Name: "SAN"}, {Name: "SAN"}}
	dirS := [3]Series{{Name: "direct"}, {Name: "direct"}, {Name: "direct"}}
	pts := xvalGrid()
	prs, err := RunSweep(ctx, cfg, pts, SweepHooks{})
	if err != nil {
		return nil, err
	}
	for i, pt := range pts {
		x := float64(i + 1)
		AppendPoint(&sanS[0], x, "unavail", prs[i])
		AppendPoint(&sanS[1], x, "unrel", prs[i])
		AppendPoint(&sanS[2], x, "excl", prs[i])

		dir, err := ituadirect.Replicate(ctx, pt.Params, cfg.Seed+uint64(4100+i), cfg.Reps, pt.Until, cfg.Workers)
		if err != nil {
			return nil, err
		}
		for j, acc := range []*stats.Accumulator{&dir.Unavail, &dir.Unrel, &dir.FracExcl} {
			appendCell(&dirS[j], x, acc.Mean(), acc.HalfWidth(0.95), acc.N(),
				cfg.Reps, cfg.Reps, 0, 0)
		}
	}
	for i := range panels {
		panels[i].Series = []Series{sanS[i], dirS[i]}
	}
	fig.Panels = panels
	return fig, nil
}

// NumericalValidation (experiment X2) checks the simulation engine against
// the numerical CTMC solver on a reduced ITUA-like availability model
// (failure/detection/recovery of a replicated service) that is small enough
// for exact transient solution.
func NumericalValidation(ctx context.Context, cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	const T = 5.0
	m, good, bad, _, err := reducedValidationModel()
	if err != nil {
		return nil, err
	}
	improper := func(s *san.State) float64 {
		if 3*s.Int(bad) >= s.Int(good)+s.Int(bad) {
			return 1
		}
		return 0
	}
	chain, err := mc.Generate(m, mc.Options{})
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "X2", Title: "Simulator vs numerical CTMC solution (reduced model)"}
	simS := Series{Name: "simulation"}
	numS := Series{Name: "uniformization"}
	horizons := []float64{1, 2, 3, 4, 5}
	specs := make([]sim.Spec, len(horizons))
	// One walk answers every horizon: a shorter horizon reuses the
	// recorded steps, with the bits a walk of its own would give.
	walk := chain.RewardWalk(improper)
	for i, t := range horizons {
		want, err := walk.IntervalAverage(0, t)
		if err != nil {
			return nil, err
		}
		appendCell(&numS, t, want, 0, 0, 0, 0, 0, 0)
		specs[i] = sim.Spec{
			Model: m, Until: t, Reps: cfg.Reps, Seed: cfg.Seed + 4200,
			Vars:        []reward.Var{&reward.TimeAverage{VarName: "u", F: improper, From: 0, To: t}},
			RepDeadline: cfg.RepDeadline, MaxFailureFrac: cfg.MaxFailureFrac,
		}
	}
	// One pool for every horizon: no barrier between them.
	for i, fr := range sim.RunFlat(ctx, specs, cfg.Workers) {
		if fr.Err != nil {
			return nil, fr.Err
		}
		AppendPoint(&simS, horizons[i], "u", newPointResult(fr.Results))
	}
	fig.Panels = []Panel{{
		ID: "X2", Measure: fmt.Sprintf("Time-averaged improper-service indicator (T up to %g)", T),
		XLabel: "T", Series: []Series{simS, numS},
	}}
	return fig, nil
}

// reducedValidationModel builds the small failure/detection/recovery SAN
// that NumericalValidation solves exactly; factored out so the model lint
// lane covers it alongside the registered grids.
func reducedValidationModel() (m *san.Model, good, bad, pending *san.Place, err error) {
	const (
		attack  = 0.6
		detect  = 1.5
		recover = 4.0
		nRep    = 3
	)
	m = san.NewModel("reduced-itua")
	good = m.Place("good", nRep)
	bad = m.Place("bad", 0)
	pending = m.Place("pending", 0)
	m.AddActivity(san.ActivityDef{
		Name: "attack", Kind: san.Timed,
		Rate:    func(s *san.State) float64 { return attack * float64(s.Get(good)) },
		Enabled: func(s *san.State) bool { return s.Get(good) > 0 },
		Reads:   []*san.Place{good},
		Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
			ctx.State.Add(good, -1)
			ctx.State.Add(bad, 1)
		}}},
	})
	m.AddActivity(san.ActivityDef{
		Name: "detect", Kind: san.Timed,
		Rate:    func(s *san.State) float64 { return detect * float64(s.Get(bad)) },
		Enabled: func(s *san.State) bool { return s.Get(bad) > 0 },
		Reads:   []*san.Place{bad},
		Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
			ctx.State.Add(bad, -1)
			ctx.State.Add(pending, 1)
		}}},
	})
	m.AddActivity(san.ActivityDef{
		Name: "restart", Kind: san.Timed,
		Rate:    func(s *san.State) float64 { return recover * float64(s.Get(pending)) },
		Enabled: func(s *san.State) bool { return s.Get(pending) > 0 },
		Reads:   []*san.Place{pending},
		Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
			ctx.State.Add(pending, -1)
			ctx.State.Add(good, 1)
		}}},
	})
	if err := m.Finalize(); err != nil {
		return nil, nil, nil, nil, err
	}
	return m, good, bad, pending, nil
}

// detectGrid is the sweep of the detection ablation: the host, replica and
// manager detection rates set together, on 12 single-host domains.
func detectGrid() []PointSpec {
	const T = 5.0
	var pts []PointSpec
	for i, rate := range []float64{0.1, 0.25, 0.5, 1, 2, 4} {
		p := core.DefaultParams()
		p.NumDomains = 12
		p.HostsPerDomain = 1
		p.NumApps = 4
		p.RepsPerApp = 7
		p.HostDetectRate = rate
		p.ReplicaDetectRate = rate
		p.MgrDetectRate = rate
		pts = append(pts, PointSpec{Label: fmt.Sprintf("X3 rate=%v", rate), Params: p, Until: T,
			SeedOffset: uint64(4300 + i), Vars: func(m *core.Model) []reward.Var {
				return []reward.Var{
					m.Unavailability("u", 0, 0, T),
					m.Unreliability("r", 0, T),
					m.FracDomainsExcluded("e", T),
				}
			}})
	}
	return pts
}

// AblationDetectionRate (experiment X3) sweeps the IDS pipeline rate
// (detectGrid) to show how the calibrated default (0.25/h) governs
// exclusion dynamics.
func AblationDetectionRate(ctx context.Context, cfg Config) (*Figure, error) {
	fig := &Figure{ID: "X3", Title: "Sensitivity to the detection pipeline rate"}
	unavail := Series{Name: "unavailability [0,5]"}
	unrel := Series{Name: "unreliability [0,5]"}
	excl := Series{Name: "domains excluded at 5"}
	pts := detectGrid()
	prs, err := RunSweep(ctx, cfg, pts, SweepHooks{})
	if err != nil {
		return nil, err
	}
	for i, pt := range pts {
		rate := pt.Params.HostDetectRate
		AppendPoint(&unavail, rate, "u", prs[i])
		AppendPoint(&unrel, rate, "r", prs[i])
		AppendPoint(&excl, rate, "e", prs[i])
	}
	fig.Panels = []Panel{{ID: "X3", Measure: "Measures vs IDS rate (12×1 hosts, 4 apps)",
		XLabel: "detection rate (1/h)", Series: []Series{unavail, unrel, excl}}}
	return fig, nil
}

// splitGrid is the sweep of the split ablation: the replica share of the
// attack budget, on 12 single-host domains.
func splitGrid() []PointSpec {
	const T = 5.0
	var pts []PointSpec
	for i, wr := range []float64{0, 0.5, 1, 2, 4, 8} {
		p := core.DefaultParams()
		p.NumDomains = 12
		p.HostsPerDomain = 1
		p.NumApps = 4
		p.RepsPerApp = 7
		p.AttackSplitReplica = wr
		pts = append(pts, PointSpec{Label: fmt.Sprintf("X4 split=%v", wr), Params: p, Until: T,
			SeedOffset: uint64(4400 + i), Vars: func(m *core.Model) []reward.Var {
				return []reward.Var{
					m.Unavailability("u", 0, 0, T),
					m.Unreliability("r", 0, T),
				}
			}})
	}
	return pts
}

// AblationRateSplit (experiment X4) sweeps the share of the attack budget
// aimed directly at replicas (splitGrid).
func AblationRateSplit(ctx context.Context, cfg Config) (*Figure, error) {
	fig := &Figure{ID: "X4", Title: "Sensitivity to the attack-budget split"}
	unavail := Series{Name: "unavailability [0,5]"}
	unrel := Series{Name: "unreliability [0,5]"}
	pts := splitGrid()
	prs, err := RunSweep(ctx, cfg, pts, SweepHooks{})
	if err != nil {
		return nil, err
	}
	for i, pt := range pts {
		wr := pt.Params.AttackSplitReplica
		AppendPoint(&unavail, wr, "u", prs[i])
		AppendPoint(&unrel, wr, "r", prs[i])
	}
	fig.Panels = []Panel{{ID: "X4", Measure: "Measures vs replica attack weight (12×1 hosts)",
		XLabel: "AttackSplitReplica", Series: []Series{unavail, unrel}}}
	return fig, nil
}

// convictModes are the series of the conviction ablation: restart-only,
// then exclusion on every conviction.
var convictModes = []bool{false, true}

// convictGrid is the sweep of the conviction ablation: for each response
// mode, 12 hosts split into domains as in study 1. Each mode has its own
// block of seed offsets, so the two modes sample independently.
func convictGrid() []PointSpec {
	const T = 5.0
	var pts []PointSpec
	for mi, excludeOnConviction := range convictModes {
		for pi, hpd := range Fig3HostsPerDomain {
			p := core.DefaultParams()
			p.NumDomains = 12 / hpd
			p.HostsPerDomain = hpd
			p.NumApps = 4
			p.RepsPerApp = 7
			p.ExcludeOnReplicaConviction = excludeOnConviction
			pts = append(pts, PointSpec{Label: fmt.Sprintf("X5 exclude=%v hpd=%d", excludeOnConviction, hpd),
				Params: p, Until: T, SeedOffset: uint64(4500 + 10*mi + pi), Vars: func(m *core.Model) []reward.Var {
					return []reward.Var{
						m.Unavailability("u", 0, 0, T),
						m.FracDomainsExcluded("e", T),
					}
				}})
		}
	}
	return pts
}

// AblationConviction (experiment X5) compares the two readings of the
// management response to replica convictions (convictGrid): restart-only
// (default) versus domain/host exclusion on every conviction (the strict
// prose reading).
func AblationConviction(ctx context.Context, cfg Config) (*Figure, error) {
	fig := &Figure{ID: "X5", Title: "Replica-conviction response: restart vs exclusion"}
	panels := []Panel{
		{ID: "X5-unavail", Measure: "Unavailability [0,5]", XLabel: "hosts/domain"},
		{ID: "X5-excl", Measure: "Fraction domains excluded at 5", XLabel: "hosts/domain"},
	}
	prs, err := RunSweep(ctx, cfg, convictGrid(), SweepHooks{})
	if err != nil {
		return nil, err
	}
	for mi, excludeOnConviction := range convictModes {
		name := "restart replica (default)"
		if excludeOnConviction {
			name = "exclude on conviction"
		}
		su := Series{Name: name}
		se := Series{Name: name}
		for pi, hpd := range Fig3HostsPerDomain {
			pr := prs[mi*len(Fig3HostsPerDomain)+pi]
			AppendPoint(&su, float64(hpd), "u", pr)
			AppendPoint(&se, float64(hpd), "e", pr)
		}
		panels[0].Series = append(panels[0].Series, su)
		panels[1].Series = append(panels[1].Series, se)
	}
	fig.Panels = panels
	return fig, nil
}

// placements are the series of the placement ablation.
var placements = []core.Placement{core.UniformPlacement, core.LeastLoadedPlacement, core.WeightedRandomPlacement}

// placementSpreads are the intra-domain spread rates the placement
// ablation sweeps.
var placementSpreads = []float64{0, 5, 10}

// placementGrid is the sweep of the placement ablation: for each recovery
// placement strategy, spread rates on the study-3 topology. Each strategy
// has its own block of seed offsets, so the strategies sample
// independently.
func placementGrid() []PointSpec {
	const T = 10.0
	var pts []PointSpec
	for si, placement := range placements {
		for pi, spread := range placementSpreads {
			p := core.DefaultParams()
			p.NumDomains = 10
			p.HostsPerDomain = 3
			p.NumApps = 4
			p.RepsPerApp = 7
			p.CorruptionMult = 5
			p.DomainSpreadRate = spread
			p.Placement = placement
			pts = append(pts, PointSpec{Label: fmt.Sprintf("X6 %v spread=%v", placement, spread),
				Params: p, Until: T, SeedOffset: uint64(4600 + 10*si + pi), Vars: func(m *core.Model) []reward.Var {
					return []reward.Var{
						m.Unavailability("u", 0, 0, T),
						m.LoadPerHost("load", T),
					}
				}})
		}
	}
	return pts
}

// AblationPlacement (experiment X6) compares the recovery placement
// strategies of placementGrid: the paper's uniform choice, deterministic
// least-loaded, and inverse-load weighted random ("unpredictable
// adaptation" with load balancing).
func AblationPlacement(ctx context.Context, cfg Config) (*Figure, error) {
	fig := &Figure{ID: "X6", Title: "Recovery placement strategies"}
	panels := []Panel{
		{ID: "X6-unavail", Measure: "Unavailability [0,10]", XLabel: "spread rate"},
		{ID: "X6-load", Measure: "Load per live host at 10", XLabel: "spread rate"},
	}
	prs, err := RunSweep(ctx, cfg, placementGrid(), SweepHooks{})
	if err != nil {
		return nil, err
	}
	for mi, placement := range placements {
		su := Series{Name: placement.String()}
		sl := Series{Name: placement.String()}
		for pi, spread := range placementSpreads {
			pr := prs[mi*len(placementSpreads)+pi]
			AppendPoint(&su, spread, "u", pr)
			AppendPoint(&sl, spread, "load", pr)
		}
		panels[0].Series = append(panels[0].Series, su)
		panels[1].Series = append(panels[1].Series, sl)
	}
	fig.Panels = panels
	return fig, nil
}
