package integrity

import (
	"context"
	"fmt"
	"math"
	"strings"

	"ituaval/internal/core"
	"ituaval/internal/reward"
	"ituaval/internal/study"
)

// CrossCheckOptions tunes a cross-engine validation run. Zero values select
// a smoke-sized check (a few hundred replications per engine) that runs in
// seconds; raise Reps for the full variant (`make crosscheck`).
type CrossCheckOptions struct {
	// Reps is the number of replications per engine. Default 200.
	Reps int
	// T is the study horizon in hours. Default 6 (the paper's interval).
	T float64
	// Seed is the root seed; the SAN engine uses Seed, the direct
	// simulator Seed+1, so the two estimates are independent. Default 1.
	Seed uint64
	// Workers bounds the parallelism of every arm (0 = GOMAXPROCS): the
	// SAN engine, the direct simulator, the live arm and the exact
	// solver. Each sampled arm folds its replications in replication
	// order, so the report does not depend on it.
	Workers int
	// Live, when true, adds the live arm: the measures estimated on a real
	// message-passing replica group (internal/rsm) subjected to the model's
	// attack process by fault injection, with seed Seed+2. Live probes are
	// also checked event-wise against the model oracle; the divergence count
	// is reported.
	Live bool
	// LiveReps is the number of live replications (0 = Reps). Live
	// replications carry a real protocol execution per injected event and
	// cost more than a model replication; lower this for smoke runs.
	LiveReps int
	// Exact, when true, adds a third arm: the same measures computed
	// numerically (state-space generation + uniformization, internal/exact)
	// with no sampling error. Both simulators' confidence intervals are
	// then checked against the exact values, turning the pairwise
	// CI-overlap test into an absolute one. The configuration must be
	// small enough to generate; ExactMaxStates caps the attempt and the
	// run errors out when exceeded.
	Exact bool
	// ExactMaxStates bounds state-space generation of the exact arm
	// (0 = the mc.Generate default, 1<<20).
	ExactMaxStates int
}

func (o *CrossCheckOptions) fill() {
	if o.Reps <= 0 {
		o.Reps = 200
	}
	if o.T <= 0 {
		o.T = 6
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// MeasureAgreement compares one measure's estimate under the two engines,
// and — when the exact arm ran — against the numerically exact value.
type MeasureAgreement struct {
	Name       string
	SANMean    float64
	SANHalf    float64 // 95% confidence half-width
	DirectMean float64
	DirectHalf float64
	// Exact is the uniformization value of the measure; valid only when
	// HasExact is set (CrossCheckOptions.Exact ran).
	Exact    float64
	HasExact bool
	// LiveMean/LiveHalf estimate the measure on the live replicated service
	// (internal/rsm); valid only when HasLive is set.
	LiveMean float64
	LiveHalf float64
	HasLive  bool
}

// Overlaps reports whether the two 95% confidence intervals intersect —
// the agreement criterion: independent estimators of the same quantity
// whose intervals are disjoint indicate a modeling or engine discrepancy.
func (a MeasureAgreement) Overlaps() bool {
	return math.Abs(a.SANMean-a.DirectMean) <= a.SANHalf+a.DirectHalf
}

// LiveOverlaps reports whether the live arm's 95% interval intersects both
// model engines' intervals — the live-validation criterion: the empirical
// measures of the real replicated service estimate the same quantities the
// model predicts. With no live arm it is vacuously true.
func (a MeasureAgreement) LiveOverlaps() bool {
	if !a.HasLive {
		return true
	}
	return math.Abs(a.LiveMean-a.SANMean) <= a.LiveHalf+a.SANHalf &&
		math.Abs(a.LiveMean-a.DirectMean) <= a.LiveHalf+a.DirectHalf
}

// ExactCovered reports whether the exact value lies within the union of
// the sampled arms' 95% intervals (both engines, plus the live arm when it
// ran). With no exact arm it is vacuously true. Each interval individually
// misses the true value 5% of the time, so the union — miss probability
// well under 5% per measure — is the right absolute criterion for an
// automated gate.
func (a MeasureAgreement) ExactCovered() bool {
	if !a.HasExact {
		return true
	}
	lo := math.Min(a.SANMean-a.SANHalf, a.DirectMean-a.DirectHalf)
	hi := math.Max(a.SANMean+a.SANHalf, a.DirectMean+a.DirectHalf)
	if a.HasLive {
		lo = math.Min(lo, a.LiveMean-a.LiveHalf)
		hi = math.Max(hi, a.LiveMean+a.LiveHalf)
	}
	return a.Exact >= lo && a.Exact <= hi
}

func (a MeasureAgreement) String() string {
	verdict := "agree"
	if !a.Overlaps() || !a.LiveOverlaps() || !a.ExactCovered() {
		verdict = "DISAGREE"
	}
	s := fmt.Sprintf("%s: SAN %.4g ± %.2g vs direct %.4g ± %.2g",
		a.Name, a.SANMean, a.SANHalf, a.DirectMean, a.DirectHalf)
	if a.HasLive {
		s += fmt.Sprintf(" vs live %.4g ± %.2g", a.LiveMean, a.LiveHalf)
	}
	if a.HasExact {
		s += fmt.Sprintf(" vs exact %.4g", a.Exact)
	}
	return s + " (" + verdict + ")"
}

// CrossCheckReport is the outcome of one cross-engine validation run.
type CrossCheckReport struct {
	Policy   core.Policy
	Reps     int
	Measures []MeasureAgreement
	// LiveProbes/LiveDivergences report the live arm's event-wise check:
	// client probes issued against the live service, and how many of them
	// disagreed with the model oracle's improper-service predicate (zero
	// under the default worst-case adversary).
	LiveProbes      int64
	LiveDivergences int64
}

// Agree reports whether every measure's confidence intervals overlap (the
// live arm's against both engines', when it ran) and, when the exact arm
// ran, every exact value is covered (ExactCovered).
func (r *CrossCheckReport) Agree() bool {
	for _, m := range r.Measures {
		if !m.Overlaps() || !m.LiveOverlaps() || !m.ExactCovered() {
			return false
		}
	}
	return true
}

func (r *CrossCheckReport) String() string {
	lines := make([]string, 0, len(r.Measures)+2)
	lines = append(lines, fmt.Sprintf("cross-check %s (%d reps/engine):", r.Policy, r.Reps))
	for _, m := range r.Measures {
		lines = append(lines, "  "+m.String())
	}
	if r.LiveProbes > 0 {
		lines = append(lines, fmt.Sprintf("  live probes %d, oracle divergences %d", r.LiveProbes, r.LiveDivergences))
	}
	return strings.Join(lines, "\n")
}

// CrossCheck runs the same ITUA configuration through the SAN engine
// (internal/sim on the composed internal/core model) and the independently
// coded direct simulator (internal/ituadirect), and compares interval
// unavailability, unreliability, and the fraction of excluded domains. The
// two implementations share only the parameter struct — the SAN engine
// executes gate closures over a marking vector while the direct simulator
// is a hand-written Gillespie loop over its own state records — so
// agreement within confidence intervals is strong evidence against an
// engine-level bug. The SAN run also carries the full ITUAInvariants
// monitor set, and tolerates no failed replication, so a conservation-law
// violation surfaces as an error here rather than as a silent skew. With
// Options.Exact set a third arm — the uniformization solution of the
// generated CTMC — anchors both sampled estimates to the numerically exact
// values (small configurations only). With Options.Live set a fourth arm
// runs the attack process against a real message-passing replica group
// (internal/rsm) and checks that the measured service — not a model of it
// — lands in the same confidence region.
//
// The check is a one-point sweep with one point per arm (study.RunSweep),
// at seed offsets 0 (SAN), 1 (direct) and 2 (live); the live arm runs in
// a second sweep, with LiveReps replications.
func CrossCheck(ctx context.Context, p core.Params, o CrossCheckOptions) (*CrossCheckReport, error) {
	o.fill()
	T := o.T
	point := study.PointSpec{Params: p, Until: T, Vars: func(m *core.Model) []reward.Var {
		return []reward.Var{
			m.Unavailability("unavail", 0, 0, T),
			m.Unreliability("unrel", 0, T),
			m.FracDomainsExcluded("excl", T),
		}
	}}
	arm := func(label string, a study.Arm, offset uint64) study.PointSpec {
		pt := point
		pt.Label, pt.Arm, pt.SeedOffset = "integrity: "+label, a, offset
		return pt
	}
	san := arm("SAN engine", study.ArmSAN, 0)
	san.Invariants = ITUAInvariants
	pts := []study.PointSpec{san, arm("direct simulator", study.ArmDirect, 1)}
	if o.Exact {
		ex := arm("exact arm", study.ArmExact, 0)
		ex.MaxStates = o.ExactMaxStates
		pts = append(pts, ex)
	}
	cfg := study.Config{Reps: o.Reps, Seed: o.Seed, Workers: o.Workers, MaxFailureFrac: -1}
	prs, err := study.RunSweep(ctx, cfg, pts, study.SweepHooks{})
	if err != nil {
		return nil, err
	}
	report := &CrossCheckReport{Policy: p.Policy, Reps: o.Reps}
	var live *study.PointResult
	if o.Live {
		// The injector replays the model's stochastic law against live
		// Bracha-broadcast replicas, so the client's empirical measures
		// estimate the same quantities, and every probe is also checked
		// against the model oracle.
		cfg = study.Config{Reps: o.LiveReps, Seed: o.Seed, Workers: o.Workers}
		if cfg.Reps <= 0 {
			cfg.Reps = o.Reps
		}
		lprs, err := study.RunSweep(ctx, cfg, []study.PointSpec{arm("live arm", study.ArmLive, 2)}, study.SweepHooks{})
		if err != nil {
			return nil, err
		}
		live = lprs[0]
		report.LiveProbes, report.LiveDivergences = live.Counts["probes"], live.Counts["divergences"]
	}
	for _, name := range []string{"unavail", "unrel", "excl"} {
		s, d := prs[0].Est[name], prs[1].Est[name]
		ma := MeasureAgreement{Name: name, SANMean: s.Mean, SANHalf: s.HalfWidth95, DirectMean: d.Mean, DirectHalf: d.HalfWidth95}
		if live != nil {
			l := live.Est[name]
			ma.LiveMean, ma.LiveHalf, ma.HasLive = l.Mean, l.HalfWidth95, true
		}
		if o.Exact {
			ma.Exact, ma.HasExact = prs[2].Est[name].Mean, true
		}
		report.Measures = append(report.Measures, ma)
	}
	return report, nil
}
