package study_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ituaval/internal/integrity"
	"ituaval/internal/study"
)

// crossKey is the crosscheck scenario's key in the determinism golden; it
// keeps its historical "workers=1" name.
const crossKey = "crosscheck/workers=1"

// detCross pins the integrity.CrossCheck smoke: both the SAN-engine
// estimates and the independent direct simulator's.
func detCross(t *testing.T, workers int) []string {
	t.Helper()
	rep, err := integrity.CrossCheck(context.Background(), study.DetParams(),
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

// TestDeterminismGoldenCrossCheck is TestDeterminismGolden's crosscheck
// scenario: the Workers=1 reference in determinism_golden.json, reproduced
// at every worker count. -update-golden rewrites its key alone.
func TestDeterminismGoldenCrossCheck(t *testing.T) {
	if *study.UpdateGolden {
		study.UpdateGoldenKeys(t, study.GoldenPath, map[string][]string{crossKey: detCross(t, 1)})
		return
	}
	want := study.ReadGolden(t, study.GoldenPath, "update-golden")[crossKey]
	for _, w := range study.DetWorkers {
		study.CompareLines(t, fmt.Sprintf("crosscheck/workers=%d", w), detCross(t, w), want)
	}
}
