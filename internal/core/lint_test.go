package core

import (
	"testing"
)

// TestLintCoreModels holds every structurally distinct corner of the ITUA
// model to the static linter's standard: no dead activities, no dead state,
// no bound violations — including the zero-rate configurations where whole
// subsystems are gated out of the net.
func TestLintCoreModels(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"default", func(p *Params) {}},
		{"paper-size", func(p *Params) { p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 10, 3, 4, 7 }},
		{"no-domain-spread", func(p *Params) { p.DomainSpreadRate = 0 }},
		{"no-sys-spread", func(p *Params) { p.SystemSpreadRate = 0 }},
		{"no-replica-attacks", func(p *Params) { p.AttackSplitReplica = 0 }},
		{"no-host-attacks", func(p *Params) { p.AttackSplitHost = 0 }},
		{"no-mgr-attacks", func(p *Params) { p.AttackSplitMgr = 0 }},
		{"no-misbehave", func(p *Params) { p.MisbehaveRate = 0 }},
		{"no-false-alarms", func(p *Params) { p.TotalFalseAlarmRate = 0 }},
		{"exclude-on-conviction", func(p *Params) { p.ExcludeOnReplicaConviction = true }},
		{"spare-domains", func(p *Params) { p.RepsPerApp = 3; p.ExcludeOnReplicaConviction = true }},
		{"one-host-domains", func(p *Params) { p.HostsPerDomain = 1 }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, pol := range []Policy{DomainExclusion, HostExclusion} {
				p := DefaultParams()
				p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 4, 3, 2, 4
				p.Policy = pol
				c.mut(&p)
				m, err := Build(p)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range m.SAN.Lint() {
					t.Errorf("%s: %v", pol, f)
				}
			}
		})
	}
}

// TestGatedModelStillRuns checks that a configuration with entire subsystems
// gated out of the net still builds, finalizes, and keeps its remaining
// dynamics: with only host attacks and host detection live, exclusions must
// still occur.
func TestGatedModelStillRuns(t *testing.T) {
	p := DefaultParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 3, 2, 2, 3
	p.AttackSplitReplica = 0
	p.AttackSplitMgr = 0
	p.TotalFalseAlarmRate = 0
	p.DomainSpreadRate = 0
	p.SystemSpreadRate = 0
	m, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.RepDetectDone != nil || m.MgrDetectDone != nil || m.PropDomDone == nil == false {
		t.Fatalf("gated place slices should be nil: rep=%v mgr=%v", m.RepDetectDone, m.MgrDetectDone)
	}
	if m.ExclPending == nil {
		t.Fatal("domain-exclusion pending places missing though host detection is live")
	}
}
