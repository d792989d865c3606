package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/study"
)

// paramsJSON is the comparison currency of the shape goldens: two
// core.Params are "the same configuration" iff their JSON is byte-equal.
func paramsJSON(t *testing.T, p core.Params) string {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// measureNames builds pt's model and lists the names of its measures.
func measureNames(t *testing.T, pt study.PointSpec) []string {
	t.Helper()
	m, err := core.Build(pt.Params)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, v := range pt.Vars(m) {
		names = append(names, v.Name())
	}
	return names
}

// TestGoldenShapes proves each exemplar scenario compiles to the grid its
// registered study runs (study.Registry's Grid), point by point and in
// order: byte-identical core.Params, the same seed offset, horizon and
// measure names. A scenario that drifted from its study fails here.
func TestGoldenShapes(t *testing.T) {
	for _, tc := range []struct{ file, study string }{
		{"fig5.json", "fig5"},
		{"analytic.json", "analytic"},
		{"live.json", "live"},
		{"faults.json", "faults"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			got := compileFile(t, tc.file, Defaults{}).PointSpecs()
			want := study.Registry[tc.study].Grid()
			if len(got) != len(want) {
				t.Fatalf("%d compiled points, study %s runs %d", len(got), tc.study, len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if gp, wp := paramsJSON(t, g.Params), paramsJSON(t, w.Params); gp != wp {
					t.Errorf("point %d (%s) params:\n compiled: %s\n registry: %s", i, w.Label, gp, wp)
				}
				if g.SeedOffset != w.SeedOffset || g.Until != w.Until {
					t.Errorf("point %d (%s): compiled seed offset %d, horizon %g; registry %d, %g",
						i, w.Label, g.SeedOffset, g.Until, w.SeedOffset, w.Until)
				}
				if gn, wn := measureNames(t, g), measureNames(t, w); !reflect.DeepEqual(gn, wn) {
					t.Errorf("point %d (%s) measures: compiled %v, registry %v", i, w.Label, gn, wn)
				}
			}
		})
	}
}

// TestGoldenFig5CSV is the end-to-end golden: running the fig5 scenario
// through Compile → RunSweep → Figure must reproduce the registered Fig5
// runner's output byte-for-byte (same CSV, including every IEEE-754
// value), at reduced effort and across worker counts. This pins the whole
// declarative path — seed schedule, grid order, measure construction,
// panel assembly — to the hand-written original.
func TestGoldenFig5CSV(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	want := figureCSV(t, func() (*study.Figure, error) {
		return study.Fig5(ctx, study.Config{Reps: 60, Seed: 7, Workers: 4})
	})
	c := compileFile(t, "fig5.json", Defaults{Reps: 60, Seed: 7})
	for _, workers := range []int{1, 4} {
		got := figureCSV(t, func() (*study.Figure, error) {
			return c.Run(ctx, study.Config{Workers: workers}, study.SweepHooks{})
		})
		if !bytes.Equal(got, want) {
			t.Fatalf("scenario fig5 CSV (workers=%d) differs from study.Fig5\n--- scenario ---\n%s\n--- registry ---\n%s",
				workers, got, want)
		}
	}
}

// TestGoldenFaultsCSV pins the faults scenario to the registered study's
// SAN arm byte-for-byte. A compiled scenario runs the SAN sweep only, so
// the golden is the registered figure with its direct/live/exact arms
// stripped: the remaining series (names, X grid, estimates, counts) must
// match what the declarative path produces at workers 1 and 4 — proving
// the scenario's seed schedule (seedOffset 8000, series stride 4) and
// model block compile to exactly the study's SAN arm.
func TestGoldenFaultsCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("study.Faults' exact anchor (an 863k-state uniformization) is too heavy under -race")
	}
	ctx := context.Background()
	want := figureCSV(t, func() (*study.Figure, error) {
		fig, err := study.Faults(ctx, study.Config{Reps: 60, Seed: 7, Workers: 4})
		if err != nil {
			return nil, err
		}
		san := *fig
		san.Panels = nil
		for _, p := range fig.Panels {
			fp := p
			fp.Series = nil
			for _, s := range p.Series {
				if strings.HasPrefix(s.Name, "SAN ") {
					fp.Series = append(fp.Series, s)
				}
			}
			san.Panels = append(san.Panels, fp)
		}
		return &san, nil
	})
	c := compileFile(t, "faults.json", Defaults{Reps: 60, Seed: 7})
	for _, workers := range []int{1, 4} {
		got := figureCSV(t, func() (*study.Figure, error) {
			return c.Run(ctx, study.Config{Workers: workers}, study.SweepHooks{})
		})
		if !bytes.Equal(got, want) {
			t.Fatalf("scenario faults CSV (workers=%d) differs from study.Faults SAN arm\n--- scenario ---\n%s\n--- registry ---\n%s",
				workers, got, want)
		}
	}
}

func figureCSV(t *testing.T, run func() (*study.Figure, error)) []byte {
	t.Helper()
	fig, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
