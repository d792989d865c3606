package study

// Determinism regression harness for the engine hot path. The golden file
// (testdata/determinism_golden.json) was captured from the engine BEFORE the
// allocation-free/flattened-scheduling overhaul, so this test proves the
// optimized engine samples bit-identical trajectories. Every scenario has
// one reference, captured at Workers=1, and must reproduce it at Workers 1,
// 2 and 8 — the one replication scheduler (sim.RunFlat) folds every
// study's replications in replication order, so no result depends on the
// worker count:
//
//   - fixed-seed figure panels (fig3/fig4/fig5);
//   - sim.RunContext in CRN and non-CRN mode;
//   - an integrity.CrossCheck smoke (SAN engine vs the independent direct
//     simulator).
//
// Every float is compared by its IEEE-754 bit pattern, not by tolerance.
// Regenerate with `go test ./internal/study -run TestDeterminismGolden
// -update-golden` — but only when a change is MEANT to alter sampled
// trajectories, which is a compatibility break worth a changelog entry.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/integrity"
	"ituaval/internal/reward"
	"ituaval/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/determinism_golden.json from the current engine (Workers=1 reference)")

const goldenPath = "testdata/determinism_golden.json"

// detFigureIDs are the figure experiments pinned by the golden file.
var detFigureIDs = []string{"fig3", "fig4", "fig5"}

// detFigure runs one figure experiment at reduced effort with the given
// worker count and flattens every panel value into bit-exact strings.
func detFigure(t *testing.T, id string, workers int) []string {
	t.Helper()
	cfg := Config{Reps: 60, Seed: 7, Workers: workers}
	fig, err := RunContext(context.Background(), id, cfg)
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", id, workers, err)
	}
	return flattenFigure(fig)
}

func flattenFigure(f *Figure) []string {
	var out []string
	for _, p := range f.Panels {
		for _, s := range p.Series {
			for i := range s.X {
				out = append(out, fmt.Sprintf("%s|%s|%d|x=%016x|y=%016x|hw=%016x|n=%d",
					p.ID, s.Name, i,
					math.Float64bits(s.X[i]), math.Float64bits(s.Y[i]),
					math.Float64bits(s.HW[i]), int64At(s.N, i)))
			}
		}
	}
	return out
}

// detParams is a small ITUA configuration shared by the sim and crosscheck
// scenarios, so the harness stays fast enough for every `go test` run.
func detParams() core.Params {
	p := core.DefaultParams()
	p.NumDomains = 4
	p.HostsPerDomain = 2
	p.NumApps = 3
	p.RepsPerApp = 4
	return p
}

// detSim pins sim.RunContext itself in both sampling modes.
func detSim(t *testing.T, workers int, crn bool) []string {
	t.Helper()
	m, err := core.Build(detParams())
	if err != nil {
		t.Fatal(err)
	}
	const T = 6.0
	res, err := sim.RunContext(context.Background(), sim.Spec{
		Model: m.SAN, Until: T, Reps: 50, Seed: 11, Workers: workers, CRN: crn,
		Vars: []reward.Var{
			m.Unavailability("unavail", 0, 0, T),
			m.Unreliability("unrel", 0, T),
			m.FracDomainsExcluded("excl", T),
		},
	})
	if err != nil {
		t.Fatalf("sim (workers=%d crn=%v): %v", workers, crn, err)
	}
	out := []string{fmt.Sprintf("firings=%d|completed=%d", res.TotalFirings, res.Completed)}
	for _, e := range res.Estimates {
		out = append(out, fmt.Sprintf("%s|mean=%016x|hw=%016x|min=%016x|max=%016x|n=%d",
			e.Name, math.Float64bits(e.Mean), math.Float64bits(e.HalfWidth95),
			math.Float64bits(e.Min), math.Float64bits(e.Max), e.N))
	}
	return out
}

// detCross pins the integrity.CrossCheck smoke: both the SAN-engine
// estimates and the independent direct simulator's.
func detCross(t *testing.T, workers int) []string {
	t.Helper()
	rep, err := integrity.CrossCheck(context.Background(), detParams(),
		integrity.CrossCheckOptions{Reps: 120, T: 4, Seed: 3, Workers: workers})
	if err != nil {
		t.Fatalf("crosscheck (workers=%d): %v", workers, err)
	}
	var out []string
	for _, m := range rep.Measures {
		out = append(out, fmt.Sprintf("%s|san=%016x|sanhw=%016x|direct=%016x|directhw=%016x",
			m.Name, math.Float64bits(m.SANMean), math.Float64bits(m.SANHalf),
			math.Float64bits(m.DirectMean), math.Float64bits(m.DirectHalf)))
	}
	return out
}

// detWorkers are the worker counts every scenario must reproduce its
// Workers=1 reference at.
var detWorkers = []int{1, 2, 8}

// captureGolden produces the reference scenarios, all at Workers=1 (the
// sequential order every worker count must reproduce). The sim and
// crosscheck keys keep their historical "workers=1" names.
func captureGolden(t *testing.T) map[string][]string {
	g := make(map[string][]string)
	for _, id := range detFigureIDs {
		g[id] = detFigure(t, id, 1)
	}
	for _, crn := range []bool{false, true} {
		g[fmt.Sprintf("sim/workers=1/crn=%v", crn)] = detSim(t, 1, crn)
	}
	g["crosscheck/workers=1"] = detCross(t, 1)
	return g
}

func compareLines(t *testing.T, scenario string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d values, golden has %d", scenario, len(got), len(want))
	}
	diffs := 0
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			if diffs < 5 {
				t.Errorf("%s[%d]:\n  got  %s\n  want %s", scenario, i, got[i], want[i])
			}
			diffs++
		}
	}
	if diffs > 5 {
		t.Errorf("%s: %d further mismatches suppressed", scenario, diffs-5)
	}
}

func TestDeterminismGolden(t *testing.T) {
	if *updateGolden {
		g := captureGolden(t)
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d scenarios)", goldenPath, len(g))
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	for _, w := range detWorkers {
		for _, id := range detFigureIDs {
			compareLines(t, fmt.Sprintf("%s/workers=%d", id, w), detFigure(t, id, w), want[id])
		}
		for _, crn := range []bool{false, true} {
			key := fmt.Sprintf("sim/workers=1/crn=%v", crn)
			compareLines(t, fmt.Sprintf("sim/workers=%d/crn=%v", w, crn), detSim(t, w, crn), want[key])
		}
		compareLines(t, fmt.Sprintf("crosscheck/workers=%d", w), detCross(t, w), want["crosscheck/workers=1"])
	}
}

var updatePrecisionGolden = flag.Bool("update-precision-golden", false,
	"rewrite testdata/precision_golden.json from the current scheduler (Workers=1 reference)")

const precisionGoldenPath = "testdata/precision_golden.json"

// precisionFigureIDs are the figures pinned in precision mode: fig4 runs
// two grids, one with its steady-state replications capped, and fig5 a
// series × x grid.
var precisionFigureIDs = []string{"fig4", "fig5"}

// precisionFigure runs one figure under a relative half-width target whose
// points stop after one to four doubling batches, and flattens every panel
// value together with the point's replication counts, which pin each
// point's stopping decision.
func precisionFigure(t *testing.T, id string, workers int) []string {
	t.Helper()
	cfg := Config{Reps: 20, Seed: 7, Workers: workers, TargetRelHW: 0.25, MaxReps: 160}
	fig, err := RunContext(context.Background(), id, cfg)
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", id, workers, err)
	}
	return flattenCounts(fig)
}

// flattenCounts is flattenFigure with every value's replication counts
// appended.
func flattenCounts(fig *Figure) []string {
	out := flattenFigure(fig)
	k := 0
	for _, p := range fig.Panels {
		for _, s := range p.Series {
			for i := range s.X {
				out[k] += fmt.Sprintf("|reps=%d|completed=%d", intAt(s.Reps, i), intAt(s.Completed, i))
				k++
			}
		}
	}
	return out
}

// TestPrecisionGolden pins precision-mode sweeps bit for bit at every
// worker count against a Workers=1 reference. Regenerate with
// `go test ./internal/study -run TestPrecisionGolden
// -update-precision-golden`, only for a change meant to alter sampled
// trajectories or the stopping rule.
func TestPrecisionGolden(t *testing.T) {
	if *updatePrecisionGolden {
		g := make(map[string][]string)
		for _, id := range precisionFigureIDs {
			g[id] = precisionFigure(t, id, 1)
		}
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(precisionGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d figures)", precisionGoldenPath, len(g))
		return
	}
	data, err := os.ReadFile(precisionGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-precision-golden): %v", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, w := range detWorkers {
		for _, id := range precisionFigureIDs {
			compareLines(t, fmt.Sprintf("%s/workers=%d", id, w), precisionFigure(t, id, w), want[id])
		}
	}
}

var updatePairedGolden = flag.Bool("update-paired-golden", false,
	"rewrite testdata/paired_golden.json from the current paired sweep (Workers=1 reference)")

const pairedGoldenPath = "testdata/paired_golden.json"

// pairedConfigs are the schedules the paired golden pins fig5-paired
// under: a fixed replication count, a relative half-width target on the
// paired deltas that no point meets before the cap, and an absolute one
// whose points stop after one to three doubling batches.
var pairedConfigs = map[string]Config{
	"fixed":         {Reps: 60, Seed: 7},
	"precision":     {Reps: 20, Seed: 7, TargetRelHW: 0.25, MaxReps: 160},
	"precision-abs": {Reps: 20, Seed: 7, TargetAbsHW: 0.2, MaxReps: 160},
}

// pairedFigure runs fig5-paired under the named schedule and flattens
// every panel value with its replication counts, then the figure's notes
// (crossovers and CRN variance reduction).
func pairedFigure(t *testing.T, mode string, workers int) []string {
	t.Helper()
	cfg := pairedConfigs[mode]
	cfg.Workers = workers
	fig, err := RunContext(context.Background(), "fig5-paired", cfg)
	if err != nil {
		t.Fatalf("fig5-paired %s (workers=%d): %v", mode, workers, err)
	}
	return append(flattenCounts(fig), fig.Notes...)
}

// TestPairedGolden pins the CRN-paired study, fig5-paired, in both
// schedules bit for bit at every worker count against a Workers=1
// reference. Regenerate with `go test ./internal/study -run
// TestPairedGolden -update-paired-golden`, only for a change meant to alter
// sampled trajectories, the pairing or the stopping rule.
func TestPairedGolden(t *testing.T) {
	if *updatePairedGolden {
		g := make(map[string][]string)
		for mode := range pairedConfigs {
			g[mode] = pairedFigure(t, mode, 1)
		}
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pairedGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d schedules)", pairedGoldenPath, len(g))
		return
	}
	data, err := os.ReadFile(pairedGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-paired-golden): %v", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, w := range detWorkers {
		for mode := range pairedConfigs {
			compareLines(t, fmt.Sprintf("fig5-paired/%s/workers=%d", mode, w), pairedFigure(t, mode, w), want[mode])
		}
	}
}
