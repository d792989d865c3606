package integrity

import (
	"context"
	"os"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/reward"
	"ituaval/internal/san"
	"ituaval/internal/sim"
	"ituaval/internal/study"
)

func baseParams(policy core.Policy) core.Params {
	p := core.DefaultParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 4, 2, 3, 4
	p.Policy = policy
	return p
}

// A clean model must survive the full monitor set checked at every event.
func TestITUAInvariantsCleanRun(t *testing.T) {
	for _, policy := range []core.Policy{core.DomainExclusion, core.HostExclusion} {
		m, err := core.Build(baseParams(policy))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Spec{
			Model: m.SAN, Until: 6, Reps: 40, Seed: 7,
			Vars:           []reward.Var{m.Unavailability("unavail", 0, 0, 6)},
			Invariants:     ITUAInvariants(m),
			InvariantEvery: 1,
			MaxFailureFrac: 0,
		})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if res.Failed != 0 {
			t.Fatalf("%s: %d replications violated invariants: %v",
				policy, res.Failed, res.Failures[0])
		}
	}
}

// Monitored and unmonitored runs must produce identical estimates: the
// checks read markings but never consume randomness.
func TestITUAInvariantsDoNotPerturb(t *testing.T) {
	m, err := core.Build(baseParams(core.DomainExclusion))
	if err != nil {
		t.Fatal(err)
	}
	spec := sim.Spec{
		Model: m.SAN, Until: 6, Reps: 25, Seed: 3,
		Vars: []reward.Var{m.Unavailability("unavail", 0, 0, 6)},
	}
	plain, err := sim.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Invariants = ITUAInvariants(m)
	spec.InvariantEvery = 16
	monitored, err := sim.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, b := plain.MustGet("unavail"), monitored.MustGet("unavail")
	if a.Mean != b.Mean || a.N != b.N {
		t.Fatalf("monitoring changed the estimate: %+v vs %+v", a, b)
	}
}

// Each monitor must actually detect the corruption class it guards
// against: tamper with a fresh initial state and expect a complaint.
func TestITUAInvariantsDetectTampering(t *testing.T) {
	m, err := core.Build(baseParams(core.DomainExclusion))
	if err != nil {
		t.Fatal(err)
	}
	inv := map[string]sim.Invariant{}
	for _, iv := range ITUAInvariants(m) {
		inv[iv.Name] = iv
	}
	cases := []struct {
		monitor string
		tamper  func(s *san.State)
	}{
		{"replica-accounting", func(s *san.State) { s.Add(m.Running[0], 1) }},
		{"replica-accounting", func(s *san.State) { s.Add(m.Undet[1], 1) }},
		{"replica-accounting", func(s *san.State) { s.Add(m.NeedRecovery[0], 1) }},
		{"placement-accounting", func(s *san.State) { s.Add(m.NumReplicas[0], 1) }},
		{"placement-accounting", func(s *san.State) {
			// Force two replicas of app 0 into domain 0.
			s.Set(m.OnHost[0][0], 1)
			s.Set(m.OnHost[0][1], 2)
		}},
		{"manager-accounting", func(s *san.State) { s.Add(m.MgrsRunning, -1) }},
		{"manager-accounting", func(s *san.State) { s.Set(m.MgrStatus[3], 1) }},
		{"exclusion-accounting", func(s *san.State) { s.Add(m.DomainsExcluded, 1) }},
		{"declared-bounds", func(s *san.State) { s.Set(m.HostStatus[0], 9) }},
		{"declared-bounds", func(s *san.State) { s.Set(m.MgrStatus[0], 3) }},
	}
	for i, c := range cases {
		iv, ok := inv[c.monitor]
		if !ok {
			t.Fatalf("case %d: no monitor named %q", i, c.monitor)
		}
		s := cleanState(t, m)
		if err := iv.Check(s); err != nil {
			t.Fatalf("case %d: %s rejects the clean initial state: %v", i, c.monitor, err)
		}
		c.tamper(s)
		if err := iv.Check(s); err == nil {
			t.Errorf("case %d: %s accepted the tampered state", i, c.monitor)
		}
	}
}

// faultParams enables the full environment-fault vocabulary — partitions,
// correlated attack campaigns, and a bounded repair crew — on a given base.
func faultParams(p core.Params) core.Params {
	p.PartitionRate = 2
	p.PartitionHealRate = 2
	p.CampaignRate = 0.5
	p.CampaignSize = 2
	p.CampaignProb = 0.5
	p.RepairCrew = 1
	return p
}

// The environment monitor must reject states violating the partition
// pairing law or the repair-crew conservation law, and a fault-enabled
// model must survive the monitor over full replications.
func TestEnvironmentInvariant(t *testing.T) {
	p := faultParams(baseParams(core.DomainExclusion))
	m, err := core.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	var env *sim.Invariant
	for _, iv := range ITUAInvariants(m) {
		if iv.Name == "environment-accounting" {
			iv := iv
			env = &iv
		}
	}
	if env == nil {
		t.Fatal("fault-enabled model has no environment-accounting monitor")
	}
	cases := []struct {
		name   string
		tamper func(s *san.State)
	}{
		{"half-partition", func(s *san.State) { s.Set(m.PartitionA, 1) }},
		{"self-partition", func(s *san.State) { s.Set(m.PartitionA, 2); s.Set(m.PartitionB, 2) }},
		{"crew-leak", func(s *san.State) { s.Add(m.RepairIdle, -1) }},
		{"crew-phantom", func(s *san.State) { s.Add(m.RepairBusy, 1); s.Add(m.RepairIdle, -1) }},
	}
	for _, c := range cases {
		s := cleanState(t, m)
		if err := env.Check(s); err != nil {
			t.Fatalf("%s: monitor rejects the clean initial state: %v", c.name, err)
		}
		c.tamper(s)
		if err := env.Check(s); err == nil {
			t.Errorf("%s: monitor accepted the tampered state", c.name)
		}
	}

	// Clean fault-enabled replications must survive the full monitor set.
	res, err := sim.Run(sim.Spec{
		Model: m.SAN, Until: 6, Reps: 40, Seed: 7,
		Vars:           []reward.Var{m.Unavailability("unavail", 0, 0, 6)},
		Invariants:     ITUAInvariants(m),
		InvariantEvery: 1,
		MaxFailureFrac: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d fault-enabled replications violated invariants: %v", res.Failed, res.Failures[0])
	}
}

// cleanState reproduces the initial stable configuration the engine would
// start a replication from, by running one zero-length replication and
// rebuilding the placement through the model's own init hook via sim.
func cleanState(t *testing.T, m *core.Model) *san.State {
	t.Helper()
	s := m.SAN.NewState()
	// The init hook places replicas; reproduce it through a 1-replication
	// run is overkill — instead place them directly, respecting the
	// one-per-domain law the monitors enforce.
	p := m.Params
	k := p.RepsPerApp
	if p.NumDomains < k {
		k = p.NumDomains
	}
	for a := 0; a < p.NumApps; a++ {
		for i := 0; i < k; i++ {
			g := i * p.HostsPerDomain // host 0 of domain i
			s.Set(m.OnHost[a][i], san.Marking(g+1))
			s.Set(m.HasReplica[a][i], 1)
			s.Add(m.NumReplicas[g], 1)
			s.Add(m.Running[a], 1)
		}
	}
	return s
}

func TestCrossCheckSmoke(t *testing.T) {
	for _, policy := range []core.Policy{core.DomainExclusion, core.HostExclusion} {
		p := baseParams(policy)
		report, err := CrossCheck(context.Background(), p, CrossCheckOptions{
			Reps: 150, Seed: 11,
		})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if len(report.Measures) != 3 {
			t.Fatalf("%s: %d measures, want 3", policy, len(report.Measures))
		}
		if !report.Agree() {
			t.Errorf("%s: engines disagree:\n%s", policy, report)
		}
	}
}

// TestCrossCheckExact runs the three-arm variant on a configuration small
// enough for state-space generation: both simulators' 95% intervals must
// cover the uniformization value of every measure.
func TestCrossCheckExact(t *testing.T) {
	p := core.DefaultParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 2, 1, 1, 2
	report, err := CrossCheck(context.Background(), p, CrossCheckOptions{
		Reps: 300, Seed: 17, Exact: true, ExactMaxStates: 500_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", report)
	for _, m := range report.Measures {
		if !m.HasExact {
			t.Fatalf("%s: exact arm did not run", m.Name)
		}
	}
	if !report.Agree() {
		t.Errorf("three-arm cross-check disagrees:\n%s", report)
	}
}

// TestCrossCheckFull is the heavyweight variant behind `make crosscheck`:
// more replications, tighter intervals, both policies and a larger
// topology. Gated on CROSSCHECK_FULL=1 so the ordinary test lane stays
// fast.
func TestCrossCheckFull(t *testing.T) {
	if os.Getenv("CROSSCHECK_FULL") == "" {
		t.Skip("set CROSSCHECK_FULL=1 to run the full cross-engine validation")
	}
	for _, policy := range []core.Policy{core.DomainExclusion, core.HostExclusion} {
		p := core.DefaultParams()
		p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 6, 2, 3, 7
		p.Policy = policy
		report, err := CrossCheck(context.Background(), p, CrossCheckOptions{
			Reps: 2000, Seed: 29,
		})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		t.Logf("\n%s", report)
		if !report.Agree() {
			t.Errorf("%s: engines disagree:\n%s", policy, report)
		}
	}
}

// TestCrossCheckLive runs the four-arm variant on the exact-tractable
// configuration: the live replicated service's 95% intervals must overlap
// both model engines' and the union of all three sampled intervals must
// cover the uniformization values. The live probes are also checked
// event-wise against the model oracle — zero divergences under the default
// worst-case adversary.
func TestCrossCheckLive(t *testing.T) {
	p := core.DefaultParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 2, 1, 1, 2
	report, err := CrossCheck(context.Background(), p, CrossCheckOptions{
		Reps: 300, LiveReps: 120, Seed: 23, Live: true, Exact: true, ExactMaxStates: 500_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", report)
	for _, m := range report.Measures {
		if !m.HasLive || !m.HasExact {
			t.Fatalf("%s: live=%v exact=%v, want both arms", m.Name, m.HasLive, m.HasExact)
		}
	}
	if report.LiveProbes == 0 {
		t.Fatal("live arm issued no probes")
	}
	if report.LiveDivergences != 0 {
		t.Errorf("%d of %d live probes diverged from the model oracle", report.LiveDivergences, report.LiveProbes)
	}
	if !report.Agree() {
		t.Errorf("four-arm cross-check disagrees:\n%s", report)
	}
}

// TestCrossCheckFaults runs the four-arm cross-check with the environment
// faults enabled on the exact-tractable configuration: network partitions,
// correlated attack campaigns, and a bounded repair crew all active. Every
// engine — SAN, direct, live, and the uniformization solver — must land in
// the same confidence region, and the live probes must still match the
// model oracle event for event (the oracle's improper predicate includes
// partition blocking).
func TestCrossCheckFaults(t *testing.T) {
	if raceEnabled {
		t.Skip("the exact arm is too slow under the race detector; go test ./... runs this test")
	}
	p := core.DefaultParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 2, 1, 1, 2
	p = faultParams(p)
	report, err := CrossCheck(context.Background(), p, CrossCheckOptions{
		Reps: 300, LiveReps: 120, Seed: 37, Live: true, Exact: true, ExactMaxStates: 1_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", report)
	for _, m := range report.Measures {
		if !m.HasLive || !m.HasExact {
			t.Fatalf("%s: live=%v exact=%v, want both arms", m.Name, m.HasLive, m.HasExact)
		}
	}
	if report.LiveDivergences != 0 {
		t.Errorf("%d of %d live probes diverged from the model oracle", report.LiveDivergences, report.LiveProbes)
	}
	if !report.Agree() {
		t.Errorf("fault-enabled four-arm cross-check disagrees:\n%s", report)
	}
}

// TestCrossCheckFaultsFull is the heavyweight fault validation behind
// `make faultcheck`: the four-arm check at higher replication counts, plus
// a larger SAN-vs-direct topology where the exact and live arms are ruled
// out (state space, and the model's partition-relay approximation under
// f >= 1 Byzantine budgets). Gated on FAULTCHECK_FULL=1.
func TestCrossCheckFaultsFull(t *testing.T) {
	if os.Getenv("FAULTCHECK_FULL") == "" {
		t.Skip("set FAULTCHECK_FULL=1 to run the full environment-fault validation")
	}
	p := core.DefaultParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 2, 1, 1, 2
	p = faultParams(p)
	report, err := CrossCheck(context.Background(), p, CrossCheckOptions{
		Reps: 2000, LiveReps: 1000, Seed: 41, Live: true, Exact: true, ExactMaxStates: 1_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", report)
	if report.LiveDivergences != 0 {
		t.Errorf("%d of %d live probes diverged from the model oracle", report.LiveDivergences, report.LiveProbes)
	}
	if !report.Agree() {
		t.Errorf("fault-enabled four-arm cross-check disagrees:\n%s", report)
	}

	for _, policy := range []core.Policy{core.DomainExclusion, core.HostExclusion} {
		p := core.DefaultParams()
		p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 4, 2, 1, 4
		p.Policy = policy
		p = faultParams(p)
		report, err := CrossCheck(context.Background(), p, CrossCheckOptions{
			Reps: 2000, Seed: 43,
		})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		t.Logf("\n%s", report)
		if !report.Agree() {
			t.Errorf("%s: engines disagree under environment faults:\n%s", policy, report)
		}
	}
}

// TestCrossCheckLumpedAnchor is the scale half of the lumpcheck lane
// (`make lumpcheck`): the 4-domain x 2-host x 3-app Figure-5 anchor whose
// full chain is far beyond the default generation cap, solved exactly on
// its symmetry-lumped quotient (~1.59M states) and cross-checked against
// the SAN and direct simulators — the exact values must land inside the
// union of the two 95% confidence intervals. Before lumping this
// configuration was reachable only by the simulators; the numerical
// equivalence of the quotient itself is established by the other half of
// the lane (exact.TestLumpedEquivalenceShapes). Gated on LUMPCHECK_FULL=1.
func TestCrossCheckLumpedAnchor(t *testing.T) {
	if os.Getenv("LUMPCHECK_FULL") == "" {
		t.Skip("set LUMPCHECK_FULL=1 to run the lumped 4x2 anchor cross-check")
	}
	p := study.AnalyticAnchorParams()
	report, err := CrossCheck(context.Background(), p, CrossCheckOptions{
		Reps: 1000, Seed: 29, Exact: true, ExactMaxStates: study.AnalyticAnchorMaxStates,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", report)
	for _, m := range report.Measures {
		if !m.HasExact {
			t.Fatalf("%s: exact arm did not run", m.Name)
		}
		if !m.ExactCovered() {
			t.Errorf("%s: exact value %.6g outside the simulators' CI union", m.Name, m.Exact)
		}
	}
	if !report.Agree() {
		t.Errorf("lumped-anchor cross-check disagrees:\n%s", report)
	}
}

// TestCrossCheckLiveFull is the heavyweight live validation behind
// `make livecheck`: more replications, both policies, and a larger topology
// (without the exact arm, which the larger state space rules out). Gated on
// LIVECHECK_FULL=1 so the ordinary test lane stays fast.
func TestCrossCheckLiveFull(t *testing.T) {
	if os.Getenv("LIVECHECK_FULL") == "" {
		t.Skip("set LIVECHECK_FULL=1 to run the full live validation")
	}
	for _, policy := range []core.Policy{core.DomainExclusion, core.HostExclusion} {
		p := core.DefaultParams()
		p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 4, 2, 1, 4
		p.Policy = policy
		report, err := CrossCheck(context.Background(), p, CrossCheckOptions{
			Reps: 2000, LiveReps: 1500, Seed: 31, Live: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		t.Logf("\n%s", report)
		if report.LiveDivergences != 0 {
			t.Errorf("%s: %d of %d live probes diverged from the model oracle",
				policy, report.LiveDivergences, report.LiveProbes)
		}
		if !report.Agree() {
			t.Errorf("%s: live arm disagrees with the model:\n%s", policy, report)
		}
	}
}
