package scenario

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/san"
)

// lintCorners runs the static SAN linter over the grid's structural corner
// shapes (the first and last value of each axis — the corners that change
// which activities and places exist), a cheaper form of the lint-models
// lane, which lints every point of the registered studies' grids.
// Findings indicate a structurally defective workload: dead activities,
// orphan places, or case distributions that do not sum to one.
func lintCorners(t *testing.T, name string, c *Compiled) []san.LintFinding {
	t.Helper()
	corner := func(n, i int) bool { return i == 0 || i == n-1 }
	var findings []san.LintFinding
	numSeries := len(c.Points) / c.NumX
	for _, pt := range c.Points {
		if !corner(c.NumX, pt.Xi) || !corner(numSeries, pt.Si) {
			continue
		}
		m, err := core.Build(pt.Params)
		if err != nil {
			t.Errorf("%s: lint %s: %v", name, pt.Label, err)
			continue
		}
		findings = append(findings, m.SAN.Lint()...)
	}
	return findings
}

// exemplarDir is the repo-level scenario exemplar directory, also used by
// the server tests and the serve-smoke lane.
const exemplarDir = "../../testdata/scenarios"

func parseFile(t *testing.T, name string) *Scenario {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(exemplarDir, name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	sc, err := Parse(data)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return sc
}

func compileFile(t *testing.T, name string, d Defaults) *Compiled {
	t.Helper()
	c, err := Compile(parseFile(t, name), d)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return c
}

// TestExemplarsCompile proves every shipped exemplar parses, validates, and
// compiles, and that its grid passes the static SAN lint — the same gate
// the registered studies get from the lint-models lane.
func TestExemplarsCompile(t *testing.T) {
	entries, err := os.ReadDir(exemplarDir)
	if err != nil {
		t.Fatalf("read exemplar dir: %v", err)
	}
	n := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		n++
		c := compileFile(t, name, Defaults{})
		if len(c.Points) == 0 {
			t.Errorf("%s: compiled to an empty grid", name)
		}
		for _, f := range lintCorners(t, name, c) {
			t.Errorf("%s: lint finding: %+v", name, f)
		}
	}
	if n < 3 {
		t.Fatalf("expected at least 3 exemplar scenarios, found %d", n)
	}
}

// TestHashSensitivity: the content address must change when anything that
// changes results changes (seed, reps, a rate), and must NOT change for a
// byte-level respelling of the same study.
func TestHashSensitivity(t *testing.T) {
	base := compileFile(t, "fig5.json", Defaults{})

	respelled := parseFile(t, "fig5.json")
	c2, err := Compile(respelled, Defaults{Reps: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Hash() != c2.Hash() {
		t.Errorf("explicit defaults changed the hash: %s vs %s", base.Hash(), c2.Hash())
	}

	mut := parseFile(t, "fig5.json")
	mut.Run.Seed = 2
	c3, err := Compile(mut, Defaults{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Hash() == c3.Hash() {
		t.Error("changing the seed did not change the hash")
	}
}

func TestParseRejects(t *testing.T) {
	valid := `{"name":"x","model":{"domains":2,"hostsPerDomain":1,"apps":1,"repsPerApp":2},
		"horizon":5,"measures":[{"name":"u","kind":"unavailability"}]}`
	if _, err := Parse([]byte(valid)); err != nil {
		t.Fatalf("baseline scenario rejected: %v", err)
	}
	cases := map[string]string{
		"unknown field":              `{"name":"x","modle":{}}`,
		"trailing data":              valid + `{"name":"y"}`,
		"empty input":                ``,
		"zero topology":              `{"name":"x","model":{"domains":0,"hostsPerDomain":1,"apps":1,"repsPerApp":2},"horizon":5,"measures":[{"name":"u","kind":"unavailability"}]}`,
		"no measures":                `{"name":"x","model":{"domains":2,"hostsPerDomain":1,"apps":1,"repsPerApp":2},"horizon":5,"measures":[]}`,
		"bad kind":                   `{"name":"x","model":{"domains":2,"hostsPerDomain":1,"apps":1,"repsPerApp":2},"horizon":5,"measures":[{"name":"u","kind":"availability"}]}`,
		"bad policy":                 `{"name":"x","model":{"domains":2,"hostsPerDomain":1,"apps":1,"repsPerApp":2,"policy":"none"},"horizon":5,"measures":[{"name":"u","kind":"unavailability"}]}`,
		"negative rate":              `{"name":"x","model":{"domains":2,"hostsPerDomain":1,"apps":1,"repsPerApp":2,"totalAttackRate":-1},"horizon":5,"measures":[{"name":"u","kind":"unavailability"}]}`,
		"enum x axis":                `{"name":"x","model":{"domains":2,"hostsPerDomain":1,"apps":1,"repsPerApp":2},"horizon":5,"measures":[{"name":"u","kind":"unavailability"}],"sweep":{"x":{"param":"policy","strings":["host-exclusion"]}}}`,
		"yaml input":                 "name: x\nmodel:\n  domains: 2\n  hostsPerDomain: 1\n  apps: 1\n  repsPerApp: 2\nhorizon: 5\nmeasures:\n  - name: u\n    kind: unavailability\n",
		"oversized input":            `{"name":"` + strings.Repeat("a", MaxBytes) + `"}`,
		"maxReps below reps":         `{"name":"x","model":{"domains":2,"hostsPerDomain":1,"apps":1,"repsPerApp":2},"horizon":5,"measures":[{"name":"u","kind":"unavailability"}],"run":{"reps":100,"maxReps":50,"targetRelHW":0.1}}`,
		"maxReps below default reps": `{"name":"x","model":{"domains":2,"hostsPerDomain":1,"apps":1,"repsPerApp":2},"horizon":5,"measures":[{"name":"u","kind":"unavailability"}],"run":{"maxReps":50,"targetAbsHW":0.1}}`,
	}
	for label, in := range cases {
		sc, err := Parse([]byte(in))
		if err == nil {
			// A negative rate passes Parse's structural pass; it must then
			// die in Compile before any simulation money is spent.
			if _, cerr := Compile(sc, Defaults{}); cerr == nil {
				t.Errorf("%s: accepted", label)
			}
		}
	}
}

// TestCompileRejectsNonFinite: JSON cannot spell NaN or ±Inf, but a
// Scenario built in Go can carry them into Compile, where NaN would slip
// past every bound check of core.Params.Validate.
func TestCompileRejectsNonFinite(t *testing.T) {
	valid := func() *Scenario {
		return &Scenario{
			Name:     "x",
			Model:    Model{Domains: 2, HostsPerDomain: 1, Apps: 1, RepsPerApp: 2},
			Horizon:  5,
			Measures: []Measure{{Name: "u", Kind: "unavailability"}},
			Sweep:    &Sweep{X: Axis{Param: "domainSpreadRate", Values: []float64{0, 1}}},
		}
	}
	if _, err := Compile(valid(), Defaults{}); err != nil {
		t.Fatalf("baseline scenario rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for label, mutate := range map[string]func(sc *Scenario){
		"NaN rate":        func(sc *Scenario) { sc.Model.TotalAttackRate = &nan },
		"Inf rate":        func(sc *Scenario) { sc.Model.RecoveryRate = &inf },
		"Inf measure to":  func(sc *Scenario) { sc.Measures[0].To = inf },
		"NaN measure to":  func(sc *Scenario) { sc.Measures[0].To = nan },
		"NaN sweep value": func(sc *Scenario) { sc.Sweep.X.Values[1] = nan },
		"Inf sweep value": func(sc *Scenario) { sc.Sweep.X.Values[0] = -inf },
	} {
		sc := valid()
		mutate(sc)
		if _, err := Compile(sc, Defaults{}); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("%s: Compile returned %v, want a finiteness error", label, err)
		}
	}
}

// TestCompileRejectsSeedCollision: two grid points sharing a seed offset
// would silently correlate their replication streams; Compile must refuse.
func TestCompileRejectsSeedCollision(t *testing.T) {
	in := `{"name":"x","model":{"domains":2,"hostsPerDomain":1,"apps":1,"repsPerApp":2},
		"horizon":5,"measures":[{"name":"u","kind":"unavailability"}],
		"sweep":{"x":{"param":"domainSpreadRate","values":[0,1,2]},
		         "series":{"param":"policy","strings":["host-exclusion","domain-exclusion"],"seedStride":2}}}`
	sc, err := Parse([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(sc, Defaults{}); err == nil || !strings.Contains(err.Error(), "collides") {
		t.Fatalf("seed collision not rejected: %v", err)
	}
}

// TestCompileDefaults pins the normalization the content address depends
// on: effort defaults, figure metadata fallbacks, measure horizon fill-in.
func TestCompileDefaults(t *testing.T) {
	in := `{"name":"small","model":{"domains":2,"hostsPerDomain":1,"apps":1,"repsPerApp":2},
		"horizon":5,"measures":[{"name":"u","kind":"unavailability"}]}`
	sc, err := Parse([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(sc, Defaults{})
	if err != nil {
		t.Fatal(err)
	}
	n := &c.Scenario
	if n.Run.Reps != 2000 || n.Run.Seed != 1 {
		t.Errorf("default effort: got reps=%d seed=%d, want 2000/1", n.Run.Reps, n.Run.Seed)
	}
	if n.Figure.ID != "small" || n.Figure.Title != "small" {
		t.Errorf("figure metadata fallback: got %+v", n.Figure)
	}
	if n.Measures[0].To != 5 {
		t.Errorf("measure horizon fill-in: got to=%g, want 5", n.Measures[0].To)
	}
	if len(c.Points) != 1 || c.Points[0].SeedOffset != 0 {
		t.Errorf("sweepless grid: got %d points, offset %d", len(c.Points), c.Points[0].SeedOffset)
	}
	// The input scenario must not have been mutated: normalization belongs
	// to the compiled copy only.
	if sc.Run.Reps != 0 || sc.Figure.ID != "" {
		t.Errorf("Compile mutated its input: %+v %+v", sc.Run, sc.Figure)
	}
}
