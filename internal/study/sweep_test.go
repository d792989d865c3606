package study

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/precision"
	"ituaval/internal/reward"
	"ituaval/internal/san"
	"ituaval/internal/sim"
	"ituaval/internal/stats"
)

// precisionSweep is a three-point sweep on the small 2-domain × 1-host
// configuration, cheap enough for schedule tests. Its horizons differ, so
// its measures differ in relative noise and a tight target takes each
// point a different number of doubling rounds.
func precisionSweep() []PointSpec {
	p := liveGrid()[2].Params // spread rate 4
	var pts []PointSpec
	for i, T := range []float64{1.5, 3, 6} {
		pts = append(pts, PointSpec{Label: fmt.Sprintf("T=%v", T),
			Params: p, Until: T, SeedOffset: uint64(i), Vars: liveVars(T)})
	}
	return pts
}

func runPrecisionSweep(t *testing.T, cfg Config) []*PointResult {
	t.Helper()
	prs, err := RunSweep(context.Background(), cfg, precisionSweep(), SweepHooks{})
	if err != nil {
		t.Fatal(err)
	}
	return prs
}

// TestSweepPrecisionStopsAtTarget: every point grows from Reps by doubling
// and stops in the first round whose estimates meet the target, before the
// cap; the points stop in different rounds, so later rounds run only the
// points still short of their target.
func TestSweepPrecisionStopsAtTarget(t *testing.T) {
	cfg := Config{Reps: 16, Seed: 11, TargetRelHW: 0.1, MaxReps: 1 << 14}
	rounds := make(map[int]bool)
	for i, pr := range runPrecisionSweep(t, cfg) {
		if pr.Reps >= cfg.MaxReps {
			t.Fatalf("point %d used all %d reps; the target should be reachable sooner", i, cfg.MaxReps)
		}
		if r := pr.Reps / cfg.Reps; pr.Reps%cfg.Reps != 0 || r&(r-1) != 0 {
			t.Fatalf("point %d: total reps %d is not on the doubling schedule from %d", i, pr.Reps, cfg.Reps)
		}
		if pr.Reps < 2*cfg.Reps {
			t.Fatalf("point %d stopped after one batch; the test needs a target that takes several", i)
		}
		for name, e := range pr.Est {
			if e.HalfWidth95 > cfg.TargetRelHW*math.Abs(e.Mean) {
				t.Fatalf("point %d stopped with %s hw %v > %v of mean %v", i, name, e.HalfWidth95, cfg.TargetRelHW, e.Mean)
			}
		}
		rounds[pr.Reps] = true
	}
	if len(rounds) < 2 {
		t.Fatalf("every point stopped in the same round; the test needs points that stop apart")
	}
}

// TestSweepPrecisionStopsAtCap: an unreachable target runs every point to
// exactly MaxReps and warns once per point.
func TestSweepPrecisionStopsAtCap(t *testing.T) {
	var warnings []string
	cfg := Config{Reps: 16, Seed: 12, TargetRelHW: 1e-9, MaxReps: 100,
		Warnf: func(format string, args ...any) { warnings = append(warnings, fmt.Sprintf(format, args...)) }}
	prs := runPrecisionSweep(t, cfg)
	for i, pr := range prs {
		if pr.Reps != cfg.MaxReps {
			t.Fatalf("point %d ran %d reps, want the full cap of %d", i, pr.Reps, cfg.MaxReps)
		}
	}
	if len(warnings) != len(prs) || !strings.Contains(warnings[0], "not reached") {
		t.Fatalf("want one unmet-target warning per point, got %q", warnings)
	}
}

// TestSweepPrecisionEqualsSingleRun pins the batching exactness: each
// point's result is the merge of its doubling batches bit for bit, and
// those batches reproduce the per-replication values of one monolithic
// run of the same total.
func TestSweepPrecisionEqualsSingleRun(t *testing.T) {
	cfg := Config{Reps: 16, Seed: 13, TargetRelHW: 0.1, MaxReps: 1 << 14}
	prs := runPrecisionSweep(t, cfg)
	for i, p := range precisionSweep() {
		m, err := core.Build(p.Params)
		if err != nil {
			t.Fatal(err)
		}
		spec := sim.Spec{Model: m.SAN, Until: p.Until, Seed: cfg.Seed + p.SeedOffset,
			Vars: p.Vars(m), KeepPerRep: true}
		var merged *sim.Results
		for total := 0; total < prs[i].Reps; total = merged.Reps {
			spec.FirstRep = total
			spec.Reps = precision.NextBatch(total, cfg.Reps, cfg.MaxReps)
			batch, err := sim.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if merged == nil {
				merged = batch
			} else if err := merged.Merge(batch); err != nil {
				t.Fatal(err)
			}
		}
		if got := newPointResult(merged); !reflect.DeepEqual(got, prs[i]) {
			t.Fatalf("point %d: sweep result differs from its merged batches:\nsweep:   %+v\nbatches: %+v", i, prs[i], got)
		}
		spec.FirstRep, spec.Reps = 0, prs[i].Reps
		single, err := sim.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(merged.PerRep, single.PerRep) {
			t.Fatalf("point %d: batched per-replication values differ from a monolithic run", i)
		}
	}
}

// TestSweepPrecisionDeterministicAcrossWorkers: the stopping decisions and
// every estimate are the same at every worker count.
func TestSweepPrecisionDeterministicAcrossWorkers(t *testing.T) {
	var ref []*PointResult
	for _, workers := range []int{1, 3, 8} {
		prs := runPrecisionSweep(t, Config{Reps: 16, Seed: 14, Workers: workers, TargetRelHW: 0.1, MaxReps: 1 << 14})
		if ref == nil {
			ref = prs
			continue
		}
		if !reflect.DeepEqual(prs, ref) {
			t.Fatalf("workers=%d: results differ from workers=1", workers)
		}
	}
}

// TestSweepPrecisionValidation: a schedule whose cap is below its first
// batch, or a negative target, is rejected before anything runs.
func TestSweepPrecisionValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"max below initial": {Reps: 64, TargetRelHW: 0.5, MaxReps: 32},
		"negative target":   {Reps: 16, TargetRelHW: -1, TargetAbsHW: 0.5},
	} {
		if _, err := RunSweep(context.Background(), cfg, precisionSweep(), SweepHooks{}); err == nil {
			t.Errorf("%s: RunSweep accepted an invalid schedule", name)
		}
	}
}

// panicVar is a reward variable whose every observation panics, so each
// replication of a point that measures it fails.
type panicVar struct{}

func (panicVar) Name() string                 { return "boom" }
func (panicVar) NewObserver() reward.Observer { return panicObserver{} }

type panicObserver struct{}

func (panicObserver) Init(*san.State, float64)                      { panic("boom") }
func (panicObserver) Advance(*san.State, float64, float64)          {}
func (panicObserver) Fired(*san.State, *san.Activity, int, float64) {}
func (panicObserver) Done(*san.State, float64)                      {}
func (panicObserver) Results(func(float64))                         {}

// TestSweepFailedPointStopsAlone: under both schedules a point whose
// replications all fail stops with an error naming it, while the other
// points run to the results they have in a sweep without it.
func TestSweepFailedPointStopsAlone(t *testing.T) {
	for _, cfg := range []Config{
		{Reps: 16, Seed: 15},
		{Reps: 16, Seed: 15, TargetRelHW: 0.1, MaxReps: 1 << 14},
	} {
		want := runPrecisionSweep(t, cfg)
		pts := precisionSweep()
		pts[1].Label = "failing"
		pts[1].Vars = func(*core.Model) []reward.Var { return []reward.Var{panicVar{}} }
		prs, err := RunSweep(context.Background(), cfg, pts, SweepHooks{})
		if err == nil || !strings.HasPrefix(err.Error(), "failing: ") {
			t.Fatalf("precision=%v: err = %v, want the failing point's error", cfg.precisionMode(), err)
		}
		if prs[1] != nil {
			t.Fatalf("precision=%v: the failing point has a result", cfg.precisionMode())
		}
		for _, i := range []int{0, 2} {
			if !reflect.DeepEqual(prs[i], want[i]) {
				t.Fatalf("precision=%v: point %d differs from the sweep without a failure", cfg.precisionMode(), i)
			}
		}
	}
}

// reducedFig5 is the exclusion-policy configuration of study 3 at a
// reduced topology (6 domains x 2 hosts, 2 apps x 5 replicas), cheap
// enough for pairing tests while keeping the policies' stochastic roles
// aligned for CRN.
func reducedFig5(policy core.Policy, spread float64) core.Params {
	p := core.DefaultParams()
	p.NumDomains = 6
	p.HostsPerDomain = 2
	p.NumApps = 2
	p.RepsPerApp = 5
	p.CorruptionMult = 5
	p.DomainSpreadRate = spread
	p.Policy = policy
	return p
}

// policyPair is a CRN pair of host exclusion (arm A) against domain
// exclusion (arm B) on reducedFig5 over a 4-hour horizon, measuring the
// named variables (unavailability "unavail", unreliability "unrel").
func policyPair(label string, spread float64, offset uint64, measures ...string) PointSpec {
	const T = 4.0
	dom := reducedFig5(core.DomainExclusion, spread)
	return PointSpec{Label: label, Params: reducedFig5(core.HostExclusion, spread), PairedWith: &dom,
		Until: T, SeedOffset: offset, Vars: func(m *core.Model) []reward.Var {
			var vars []reward.Var
			for _, name := range measures {
				if name == "unavail" {
					vars = append(vars, m.Unavailability(name, 0, 0, T))
				} else {
					vars = append(vars, m.Unreliability(name, 0, T))
				}
			}
			return vars
		}}
}

func runPair(t *testing.T, cfg Config, pt PointSpec) *PointResult {
	t.Helper()
	prs, err := RunSweep(context.Background(), cfg, []PointSpec{pt}, SweepHooks{})
	if err != nil {
		t.Fatal(err)
	}
	return prs[0]
}

// TestCRNPairingReducesFig5DeltaVariance is the headline acceptance test
// of pairing: running the host- and domain-exclusion configurations as a
// CRN pair must shrink the variance of the unavailability delta by at
// least 4x compared with independent sampling at equal replication
// counts. The VRF is exactly that ratio — (VarA + VarB), the delta
// variance two independent runs with these marginals would have, over the
// paired VarDelta.
func TestCRNPairingReducesFig5DeltaVariance(t *testing.T) {
	const reps = 384
	pr := runPair(t, Config{Reps: reps, Seed: 97}, policyPair("pair", 2, 0, "unavail", "unrel"))
	d := pr.Est["unavail.delta"]
	if d.N < reps*9/10 {
		t.Fatalf("only %d of %d pairs completed", d.N, reps)
	}
	if corr := pr.Est["unavail.corr"].Mean; corr <= 0 {
		t.Fatalf("CRN produced non-positive unavailability correlation %v", corr)
	}
	if vrf := pr.Est["unavail.vrf"].Mean; vrf < 4 {
		t.Fatalf("variance reduction factor %v < 4", vrf)
	}
	// The paired half-width must beat the independent-design half-width the
	// marginals imply, by the same sqrt(VRF) margin.
	a, b := pr.Est["unavail.a"], pr.Est["unavail.b"]
	indep := math.Sqrt(a.HalfWidth95*a.HalfWidth95 + b.HalfWidth95*b.HalfWidth95)
	if d.HalfWidth95 >= indep/2 {
		t.Fatalf("paired hw %v not at least 2x tighter than independent %v", d.HalfWidth95, indep)
	}
	// A shared seed alone already correlates the arms: replication j of
	// both draws from the same stream, in event order, until their
	// trajectories part (VRF 4.3 here, against 9.3 with CRN). CRN must do
	// clearly better than that, or a pair run without it would pass the
	// checks above.
	if vrf, shared := pr.Est["unavail.vrf"].Mean, sharedSeedVRF(t, reps, 97); vrf < 1.5*shared {
		t.Fatalf("CRN variance reduction factor %v is not 1.5x the shared-seed pair's %v", vrf, shared)
	}
}

// sharedSeedVRF runs the arms of TestCRNPairingReducesFig5DeltaVariance's
// pair on the pair's seed without common random numbers and returns the
// unavailability delta's variance reduction factor.
func sharedSeedVRF(t *testing.T, reps int, seed uint64) float64 {
	t.Helper()
	pt := policyPair("pair", 2, 0, "unavail")
	var perRep [][]float64
	for _, p := range []core.Params{pt.Params, *pt.PairedWith} {
		m, err := core.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Spec{Model: m.SAN, Until: pt.Until, Reps: reps, Seed: seed + pt.SeedOffset,
			Vars: pt.Vars(m), KeepPerRep: true})
		if err != nil {
			t.Fatal(err)
		}
		perRep = append(perRep, res.PerRep[0])
	}
	pd, err := stats.PairedT(perRep[0], perRep[1], 0.95)
	if err != nil {
		t.Fatal(err)
	}
	return pd.VRF
}

// TestPairedPointMatchesManualPairedT pins a pair's bookkeeping to the
// stats layer: running each arm alone on common random numbers and
// recomputing the paired-t from their per-replication values must
// reproduce every measure of the pair exactly, and the marginals must be
// the arms' own estimates.
func TestPairedPointMatchesManualPairedT(t *testing.T) {
	cfg := Config{Reps: 64, Seed: 21}
	pt := policyPair("pair", 0, 3, "unavail", "unrel")
	pr := runPair(t, cfg, pt)
	var arms []*sim.Results
	for _, p := range []core.Params{pt.Params, *pt.PairedWith} {
		m, err := core.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Spec{Model: m.SAN, Until: pt.Until, Reps: cfg.Reps, Seed: cfg.Seed + pt.SeedOffset,
			Vars: pt.Vars(m), CRN: true, KeepPerRep: true})
		if err != nil {
			t.Fatal(err)
		}
		arms = append(arms, res)
	}
	for i, name := range []string{"unavail", "unrel"} {
		want, err := stats.PairedT(arms[0].PerRep[i], arms[1].PerRep[i], 0.95)
		if err != nil {
			t.Fatal(err)
		}
		d := pr.Est[name+".delta"]
		if d.Mean != want.Delta || d.HalfWidth95 != want.HalfWidth || d.N != want.N || d.Min != want.Lo || d.Max != want.Hi {
			t.Fatalf("%s.delta %+v does not match manual paired-t %+v", name, d, want)
		}
		if pr.Est[name+".corr"].Mean != want.Corr || pr.Est[name+".vrf"].Mean != want.VRF {
			t.Fatalf("%s: corr/vrf %v/%v, manual %v/%v", name,
				pr.Est[name+".corr"].Mean, pr.Est[name+".vrf"].Mean, want.Corr, want.VRF)
		}
		if pr.Est[name+".a"] != arms[0].Estimates[i] || pr.Est[name+".b"] != arms[1].Estimates[i] {
			t.Fatalf("%s: marginals differ from the arms run alone", name)
		}
	}
	if pr.Reps != 2*cfg.Reps || pr.Completed != arms[0].Completed+arms[1].Completed {
		t.Fatalf("replication counts %+v do not sum the arms", pr)
	}
}

// TestPairedPointDeterministicAcrossWorkers: a pair's every estimate is
// the same at every worker count.
func TestPairedPointDeterministicAcrossWorkers(t *testing.T) {
	var ref *PointResult
	for _, workers := range []int{1, 3, 8} {
		pr := runPair(t, Config{Reps: 96, Seed: 22, Workers: workers}, policyPair("pair", 4, 0, "unavail", "unrel"))
		if ref == nil {
			ref = pr
			continue
		}
		if !reflect.DeepEqual(pr, ref) {
			t.Fatalf("workers=%d: pair differs from workers=1", workers)
		}
	}
}

// TestPairedPointSequentialStops drives a pair to a precision target on
// its delta: it grows on the doubling schedule, stops before the cap once
// the delta's half-width meets the target, and does so identically at
// every worker count.
func TestPairedPointSequentialStops(t *testing.T) {
	var ref *PointResult
	for _, workers := range []int{1, 4} {
		cfg := Config{Reps: 16, Seed: 23, Workers: workers, TargetAbsHW: 0.01, MaxReps: 1 << 14}
		pr := runPair(t, cfg, policyPair("pair", 2, 0, "unavail"))
		perArm := pr.Reps / 2
		if r := perArm / cfg.Reps; perArm%cfg.Reps != 0 || r&(r-1) != 0 {
			t.Fatalf("workers=%d: %d replications per arm is not on the doubling schedule from %d", workers, perArm, cfg.Reps)
		}
		if perArm < 2*cfg.Reps || perArm >= cfg.MaxReps {
			t.Fatalf("workers=%d: stopped at %d replications per arm; the target should take several batches and fewer than the cap", workers, perArm)
		}
		if hw := pr.Est["unavail.delta"].HalfWidth95; hw > cfg.TargetAbsHW {
			t.Fatalf("workers=%d: stopped with delta hw %v > %v", workers, hw, cfg.TargetAbsHW)
		}
		if ref == nil {
			ref = pr
			continue
		}
		if !reflect.DeepEqual(pr, ref) {
			t.Fatal("the pair diverged across workers")
		}
	}
}

// TestPairedPointValidation: a schedule whose cap is below its first
// batch, a negative target, an arm whose configuration does not build, and
// arms whose measures differ are rejected before anything runs.
func TestPairedPointValidation(t *testing.T) {
	good := Config{Reps: 16, TargetRelHW: 0.5, MaxReps: 64}
	badArm := policyPair("bad arm", 0, 0, "unavail")
	invalid := *badArm.PairedWith
	invalid.NumDomains = 0
	badArm.PairedWith = &invalid
	mismatched := policyPair("mismatched", 0, 0, "unavail")
	mismatched.Vars = func(m *core.Model) []reward.Var {
		return []reward.Var{m.Unavailability(m.Params.Policy.String(), 0, 0, 4)}
	}
	for _, c := range []struct {
		name string
		cfg  Config
		pt   PointSpec
	}{
		{"max below initial", Config{Reps: 64, TargetRelHW: 0.5, MaxReps: 32}, policyPair("pair", 0, 0, "unavail")},
		{"negative target", Config{Reps: 16, TargetRelHW: -1, TargetAbsHW: 0.5}, policyPair("pair", 0, 0, "unavail")},
		{"arm does not build", good, badArm},
		{"arms measure different variables", good, mismatched},
	} {
		reps := 0
		_, err := RunSweep(context.Background(), c.cfg, []PointSpec{c.pt}, SweepHooks{OnRep: func(int) { reps++ }})
		if err == nil || reps != 0 {
			t.Errorf("%s: RunSweep accepted an invalid pair (err %v, %d replications run)", c.name, err, reps)
		}
	}
}

// TestPairedPointFailedArmFailsPair: under both schedules a pair whose
// second arm fails in every replication stops as one point, with an error
// naming it, while the points around it run to the results they have in a
// sweep without it. Its replications are reported for both arms and the
// other pairs are reported once each.
func TestPairedPointFailedArmFailsPair(t *testing.T) {
	for _, cfg := range []Config{
		{Reps: 16, Seed: 15},
		{Reps: 16, Seed: 15, TargetAbsHW: 0.05, MaxReps: 256},
	} {
		pts := []PointSpec{
			policyPair("first", 0, 0, "unavail"),
			policyPair("failing", 2, 1, "unavail"),
			policyPair("last", 4, 2, "unavail"),
		}
		want, err := RunSweep(context.Background(), cfg, pts, SweepHooks{})
		if err != nil {
			t.Fatal(err)
		}
		// Arm B (domain exclusion) panics in every replication; arm A
		// measures the same name and runs clean.
		pts[1].Vars = func(m *core.Model) []reward.Var {
			if m.Params.Policy == core.DomainExclusion {
				return []reward.Var{panicVar{}}
			}
			return []reward.Var{m.Unavailability(panicVar{}.Name(), 0, 0, 4)}
		}
		var mu sync.Mutex
		reps, points := make([]int, len(pts)), make([]int, len(pts))
		hooks := SweepHooks{
			OnRep:   func(i int) { mu.Lock(); reps[i]++; mu.Unlock() },
			OnPoint: func(i int, _ *PointResult) { mu.Lock(); points[i]++; mu.Unlock() },
		}
		prs, err := RunSweep(context.Background(), cfg, pts, hooks)
		if err == nil || !strings.HasPrefix(err.Error(), "failing: ") {
			t.Fatalf("precision=%v: err = %v, want the failing pair's error", cfg.precisionMode(), err)
		}
		if prs[1] != nil || points[1] != 0 {
			t.Fatalf("precision=%v: the failing pair has a result", cfg.precisionMode())
		}
		for _, i := range []int{0, 2} {
			if !reflect.DeepEqual(prs[i], want[i]) || points[i] != 1 {
				t.Fatalf("precision=%v: pair %d differs from the sweep without a failure, or was reported %d times",
					cfg.precisionMode(), i, points[i])
			}
		}
		if !cfg.precisionMode() && (reps[0] != 2*cfg.Reps || reps[1] != 2*cfg.Reps) {
			t.Fatalf("replications reported per pair %v, want %d for both arms", reps, 2*cfg.Reps)
		}
	}
}

// silentVar is a reward variable that never emits an observation, so every
// replication's summary value is NaN.
type silentVar struct{}

func (silentVar) Name() string                 { return "silent" }
func (silentVar) NewObserver() reward.Observer { return silentObserver{} }

type silentObserver struct{}

func (silentObserver) Init(*san.State, float64)                      {}
func (silentObserver) Advance(*san.State, float64, float64)          {}
func (silentObserver) Fired(*san.State, *san.Activity, int, float64) {}
func (silentObserver) Done(*san.State, float64)                      {}
func (silentObserver) Results(func(float64))                         {}

// TestPairedPointNeedsTwoPairs: a delta over fewer than two complete pairs
// never meets a precision target, although its half-width reads 0, so a
// pair whose measure emits nothing runs to the cap and warns.
func TestPairedPointNeedsTwoPairs(t *testing.T) {
	var warnings []string
	cfg := Config{Reps: 16, Seed: 5, TargetAbsHW: 0.05, MaxReps: 64,
		Warnf: func(format string, args ...any) { warnings = append(warnings, fmt.Sprintf(format, args...)) }}
	pt := policyPair("pair", 0, 0)
	pt.Vars = func(*core.Model) []reward.Var { return []reward.Var{silentVar{}} }
	pr := runPair(t, cfg, pt)
	if pr.Reps != 2*cfg.MaxReps || pr.Est["silent.delta"].N != 0 {
		t.Fatalf("pair ran %d replications with %d complete pairs; want the cap of %d per arm and none",
			pr.Reps, pr.Est["silent.delta"].N, cfg.MaxReps)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "paired precision target") {
		t.Fatalf("want one unmet paired-target warning, got %q", warnings)
	}
}
