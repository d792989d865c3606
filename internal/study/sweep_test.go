package study

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/precision"
	"ituaval/internal/reward"
	"ituaval/internal/san"
	"ituaval/internal/sim"
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
