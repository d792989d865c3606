package study

import (
	"context"
	"fmt"
	"math"

	"ituaval/internal/core"
	"ituaval/internal/exact"
	"ituaval/internal/ituadirect"
	"ituaval/internal/reward"
	"ituaval/internal/rsm"
	"ituaval/internal/sim"
	"ituaval/internal/stats"
)

// Arm names the engine that runs a sweep point. The engines other than the
// SAN simulator compute three measures, the core.Model Unavailability,
// Unreliability and FracDomainsExcluded variables from time 0: the direct
// and live engines of application 0 at the point's horizon, the exact
// engine of any application at any horizon. RunSweep refuses a point that
// asks them for anything else, or is a CRN pair (whose two "arms" are two
// configurations on the SAN engine), before anything runs.
type Arm int

const (
	ArmSAN    Arm = iota // the SAN simulator (internal/sim), the zero value
	ArmDirect            // the direct simulator (ituadirect.Replicate)
	ArmLive              // a fault-injected live replica group (rsm.Run)
	ArmExact             // uniformization of the CTMC (exact.NewSolver); half-widths and counts are 0
)

var armNames = []string{"san", "direct", "live", "exact"}

func (a Arm) String() string {
	if a < 0 || int(a) >= len(armNames) {
		return fmt.Sprintf("arm(%d)", int(a))
	}
	return armNames[a]
}

// onArm copies pts onto another engine, each copy at its point's seed
// offset plus shift.
func onArm(pts []PointSpec, arm Arm, shift uint64) []PointSpec {
	out := make([]PointSpec, len(pts))
	for i, pt := range pts {
		pt.Label += " " + arm.String()
		pt.Arm = arm
		pt.SeedOffset += shift
		out[i] = pt
	}
	return out
}

// worstGap is the largest |a − b| over the measures of the points a[i] and
// b[i], in units of the two estimates' summed 95% half-widths (0 when both
// are 0).
func worstGap(measures []string, a, b []*PointResult) float64 {
	w := 0.0
	for i := range a {
		for _, name := range measures {
			ea, eb := a[i].Est[name], b[i].Est[name]
			if hw := ea.HalfWidth95 + eb.HalfWidth95; hw > 0 {
				w = max(w, math.Abs(ea.Mean-eb.Mean)/hw)
			}
		}
	}
	return w
}

// liveNote is the figure note on the live points' probes and divergences.
func liveNote(live []*PointResult) string {
	var probes, divergences int64
	for _, pr := range live {
		probes += pr.Counts["probes"]
		divergences += pr.Counts["divergences"]
	}
	return fmt.Sprintf("live arm: %d client probes, %d oracle divergences (expect 0)", probes, divergences)
}

// armMeasure is one measure of a point on another engine: which kind, of
// application app at horizon t.
type armMeasure struct {
	name      string
	kind, app int
	t         float64
}

// The kinds of armMeasure, in the order sampled takes its accumulators.
const (
	unavailability = iota
	unreliability
	fracExcluded
)

// armMeasures reads the measures of a point on another engine off its
// reward variables, refusing what the engine cannot compute.
func armMeasures(p *PointSpec, vars []reward.Var) ([]armMeasure, error) {
	switch {
	case p.Arm < ArmSAN || p.Arm > ArmExact:
		return nil, fmt.Errorf("%s: unknown engine %v", p.Label, p.Arm)
	case p.PairedWith != nil:
		return nil, fmt.Errorf("%s: the %v engine runs no CRN pair", p.Label, p.Arm)
	}
	ms := make([]armMeasure, len(vars))
	for i, v := range vars {
		from := 0.0
		switch v := v.(type) {
		case *core.UnavailabilityVar:
			ms[i], from = armMeasure{v.VarName, unavailability, v.App, v.To}, v.From
		case *core.UnreliabilityVar:
			ms[i] = armMeasure{v.VarName, unreliability, v.App, v.By}
		case *core.FracExcludedVar:
			ms[i] = armMeasure{v.VarName, fracExcluded, 0, v.T}
		default:
			return nil, fmt.Errorf("%s: the %v engine cannot compute %q", p.Label, p.Arm, v.Name())
		}
		if m := ms[i]; from != 0 || p.Arm != ArmExact && (m.app != 0 || m.t != p.Until) {
			return nil, fmt.Errorf("%s: the %v engine cannot compute %q (application %d over [%g, %g])",
				p.Label, p.Arm, m.name, m.app, from, m.t)
		}
	}
	return ms, nil
}

// runArm runs a point once on its engine, other than the SAN simulator,
// unless ctx is done.
func runArm(ctx context.Context, cfg Config, p *PointSpec, ms []armMeasure) (*PointResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seed := cfg.Seed + p.SeedOffset
	switch p.Arm {
	case ArmDirect:
		e, err := ituadirect.Replicate(ctx, p.Params, seed, cfg.Reps, p.Until, cfg.Workers)
		if err != nil {
			return nil, err
		}
		return sampled(ms, cfg.Reps, cfg.Reps, 0, nil, &e.Unavail, &e.Unrel, &e.FracExcl), nil
	case ArmLive:
		r, err := rsm.Run(ctx, rsm.Spec{Params: p.Params, T: p.Until, Reps: cfg.Reps, Seed: seed, Workers: cfg.Workers,
			RepDeadline: cfg.RepDeadline, MaxFailureFrac: cfg.MaxFailureFrac})
		if err != nil {
			return nil, err
		}
		if r.Failed > 0 {
			cfg.warnf("%s: %d of %d live replications failed (%v)", p.Label, r.Failed, cfg.Reps, r.Failures)
		}
		counts := map[string]int64{"probes": r.Probes, "divergences": r.Divergences}
		return sampled(ms, cfg.Reps, r.Reps, r.Failed, counts, &r.Unavail, &r.Unrel, &r.FracExcl), nil
	}
	s, err := exact.NewSolver(p.Params, exact.Options{MaxStates: p.MaxStates, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	pr := &PointResult{Est: make(map[string]sim.Estimate, len(ms)),
		Counts: map[string]int64{"states": int64(s.C.NumStates()), "transitions": int64(s.C.NumTransitions())}}
	for _, m := range ms {
		var x float64
		switch m.kind {
		case unavailability:
			x, err = s.Unavailability(m.app, m.t)
		case unreliability:
			x, err = s.Unreliability(m.app, m.t)
		default:
			x, err = s.FracDomainsExcluded(m.t)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		pr.Est[m.name] = sim.Estimate{Name: m.name, Mean: x}
	}
	return pr, nil
}

// sampled is the result of a sampled engine: its replication counts and
// tallies, and each measure from accs, the engine's accumulators in kind
// order.
func sampled(ms []armMeasure, reps, completed, failed int, counts map[string]int64, accs ...*stats.Accumulator) *PointResult {
	pr := &PointResult{Est: make(map[string]sim.Estimate, len(ms)),
		Reps: reps, Completed: completed, Failed: failed, Counts: counts}
	for _, m := range ms {
		pr.Est[m.name] = sim.Summarize(m.name, accs[m.kind])
	}
	return pr
}
