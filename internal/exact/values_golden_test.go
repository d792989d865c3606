package exact_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/exact"
)

var updateValuesGolden = flag.Bool("update-values-golden", false,
	"rewrite testdata/values_golden.json from the current solver")

const valuesGoldenPath = "testdata/values_golden.json"

// raceEnabled is set under the race detector, which slows the step kernel
// about 25-fold. The value golden then skips: its solves run no concurrent
// code that the package's other tests do not already run under it.
var raceEnabled bool

// goldenShapes are the benchmark's two exact shapes at fixed rates: the
// solve-bound 4×2 anchor and the generation-bound six single-host domains.
var goldenShapes = []struct {
	name   string
	params func() core.Params
}{
	{"exact-anchor", anchorParams},
	{"exact-wide", func() core.Params {
		p := anchorParams()
		p.NumDomains, p.HostsPerDomain = 6, 1
		p.ReplicaDetectRate = 0.25
		return p
	}},
}

// solverValues asks s every measure the golden pins and returns the bits
// of each value, keyed by measure.
func solverValues(t *testing.T, s *exact.Solver) map[string]string {
	t.Helper()
	out := make(map[string]string)
	put := func(key string, v float64, err error) {
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		out[key] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	for app := 0; app < s.M.Params.NumApps; app++ {
		for _, T := range []float64{0.5, 5, 10} {
			v, err := s.Unavailability(app, T)
			put(fmt.Sprintf("Unavailability(%d,%g)", app, T), v, err)
			v, err = s.Unreliability(app, T)
			put(fmt.Sprintf("Unreliability(%d,%g)", app, T), v, err)
		}
	}
	v, err := s.FracDomainsExcluded(10)
	put("FracDomainsExcluded(10)", v, err)
	return out
}

// TestSolverValuesGolden pins the exact bits of every Solver measure on
// both benchmark shapes at one and two workers. The benchmark golden
// checks values only to 1e-12 and the chain digest pins the chain, not the
// solve, so this is what holds a change to the uniformization step or the
// walk to bit-identical output. Regenerate with -update-values-golden only
// when a change is meant to alter solver values.
func TestSolverValuesGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("value golden skipped under the race detector (minutes of single-goroutine numerics)")
	}
	got := make(map[string]string)
	for _, sh := range goldenShapes {
		for _, workers := range []int{1, 2} {
			s, err := exact.NewSolver(sh.params(), exact.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range solverValues(t, s) {
				got[fmt.Sprintf("%s/workers=%d/%s", sh.name, workers, k)] = v
			}
		}
	}
	if *updateValuesGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(valuesGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(valuesGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-values-golden): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d values, solved %d", len(want), len(got))
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s: got %s, want %s", key, got[key], w)
		}
	}
}
