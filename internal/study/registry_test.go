package study

import (
	"fmt"
	"sync"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/san"
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
// hold it.
type lintResult struct {
	once     sync.Once
	params   core.Params
	findings []san.LintFinding
	err      error
}

func (r *lintResult) lint() ([]san.LintFinding, error) {
	r.once.Do(func() {
		m, err := core.Build(r.params)
		if err != nil {
			r.err = err
			return
		}
		r.findings = m.SAN.Lint()
	})
	return r.findings, r.err
}

// TestLintRegisteredModels is the model lint lane (`make lint-models`): it
// builds every point (both arms of a pair) of every registered study's
// grid, plus numval's reduced model, and fails on any static-analysis
// finding — an unreachable activity, an orphaned or never-read place, a
// case distribution off unity, or a violated declared bound. A
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
					r = &lintResult{params: p}
					lints[key] = r
				}
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
