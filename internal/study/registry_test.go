package study

import (
	"fmt"
	"sync"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/san"
	"ituaval/internal/sim"
)

func spreadName(p core.Params) string { return fmt.Sprintf("spread=%g", p.DomainSpreadRate) }

func policySpreadName(p core.Params) string {
	return fmt.Sprintf("%s,spread=%g", p.Policy, p.DomainSpreadRate)
}

// lintNames names the lint subtests of a registered grid by the parameters
// its study sweeps. Points that share a name are linted in one subtest
// (fig4's transient and steady-state points, abl-placement's spread
// rates); a study without an entry is named by its point labels.
var lintNames = map[string]func(p core.Params) string{
	"fig3":        func(p core.Params) string { return fmt.Sprintf("hpd=%d,apps=%d", p.HostsPerDomain, p.NumApps) },
	"fig4":        func(p core.Params) string { return fmt.Sprintf("hpd=%d", p.HostsPerDomain) },
	"fig5":        policySpreadName,
	"fig5-paired": policySpreadName,
	"analytic":    spreadName,
	"live":        spreadName,
	"faults": func(p core.Params) string {
		return fmt.Sprintf("camp=%g,part=%g", p.CampaignRate, p.PartitionRate)
	},
	"xval":       func(p core.Params) string { return p.Policy.String() },
	"abl-detect": func(p core.Params) string { return fmt.Sprintf("rate=%g", p.HostDetectRate) },
	"abl-split":  func(p core.Params) string { return fmt.Sprintf("wr=%g", p.AttackSplitReplica) },
	"abl-convict": func(p core.Params) string {
		return fmt.Sprintf("excl=%t,hpd=%d", p.ExcludeOnReplicaConviction, p.HostsPerDomain)
	},
	"abl-placement": func(p core.Params) string { return p.Placement.String() },
}

// lintResult lints one distinct configuration once, however many grids
// hold it, and runs a few replications of it in the engine's validate
// mode up to the shortest horizon its points use.
type lintResult struct {
	once     sync.Once
	params   core.Params
	until    float64
	findings []san.LintFinding
	err      error
}

// lintValidateReps is the number of validate-mode replications per
// configuration: each read-traces every predicate and rate evaluation and
// checks every incremental instantaneous scan against a full one.
const lintValidateReps = 3

func (r *lintResult) lint() ([]san.LintFinding, error) {
	r.once.Do(func() {
		m, err := core.Build(r.params)
		if err != nil {
			r.err = err
			return
		}
		r.findings = m.SAN.Lint()
		r.err = validateRuns(m.SAN, r.until)
	})
	return r.findings, r.err
}

// validateRuns runs lintValidateReps validate-mode replications of m to
// the horizon until and returns the first failure.
func validateRuns(m *san.Model, until float64) error {
	res, err := sim.Run(sim.Spec{Model: m, Until: until, Reps: lintValidateReps, Seed: 1,
		Workers: 1, Validate: true, MaxFailureFrac: 1})
	if err != nil {
		return err
	}
	if res.Failed > 0 {
		return &res.Failures[0]
	}
	return nil
}

// TestLintRegisteredModels is the model lint lane (`make lint-models`): it
// builds every point (both arms of a pair) of every registered study's
// grid, plus numval's reduced model, and fails on any static-analysis
// finding — an unreachable activity, an orphaned or never-read place, a
// case distribution off unity, or a violated declared bound — and on any
// failure of a few validate-mode replications (see lintResult). A
// configuration that several grids share is linted once.
func TestLintRegisteredModels(t *testing.T) {
	lints := map[string]*lintResult{}
	for _, id := range IDs() {
		e := Registry[id]
		if e.Grid == nil {
			continue
		}
		var names []string
		groups := map[string][]*lintResult{}
		for _, pt := range e.Grid() {
			arms := []core.Params{pt.Params}
			if pt.PairedWith != nil {
				arms = append(arms, *pt.PairedWith)
			}
			for _, p := range arms {
				key := string(paramsJSON(p))
				r := lints[key]
				if r == nil {
					r = &lintResult{params: p, until: pt.Until}
					lints[key] = r
				}
				r.until = min(r.until, pt.Until)
				name := pt.Label
				if f := lintNames[id]; f != nil {
					name = f(p)
				}
				if _, ok := groups[name]; !ok {
					names = append(names, name)
				}
				groups[name] = append(groups[name], r)
			}
		}
		for _, name := range names {
			rs := groups[name]
			t.Run(id+"/"+name, func(t *testing.T) {
				t.Parallel()
				for _, r := range rs {
					findings, err := r.lint()
					if err != nil {
						t.Fatal(err)
					}
					for _, f := range findings {
						t.Errorf("%s", f)
					}
				}
			})
		}
	}
	t.Run("numval/reduced", func(t *testing.T) {
		t.Parallel()
		m, _, _, _, err := reducedValidationModel()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range m.Lint() {
			t.Errorf("%s", f)
		}
		// numval's longest horizon.
		if err := validateRuns(m, 5); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGridSeedOffsetsDistinct: no two points of a registered grid share a
// seed offset, so no two of its points run on the same replication
// streams unless they are declared a CRN pair.
func TestGridSeedOffsetsDistinct(t *testing.T) {
	for _, id := range IDs() {
		e := Registry[id]
		if e.Grid == nil {
			continue
		}
		seen := map[uint64]string{}
		for _, pt := range e.Grid() {
			if other, ok := seen[pt.SeedOffset]; ok {
				t.Errorf("%s: %q and %q share seed offset %d", id, other, pt.Label, pt.SeedOffset)
				continue
			}
			seen[pt.SeedOffset] = pt.Label
		}
	}
}
