package ituadirect

import (
	"math"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/rng"
)

func mustNew(t *testing.T, p core.Params, rs *rng.Stream) *Process {
	t.Helper()
	s, err := New(p, rs, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Enumerating the enabled transitions must not allocate once the buffer
// has grown: every transition is a plain record, not a closure. The state
// is a mid-trajectory Fig-5 configuration (10 domains of 3 hosts, 4 apps of
// 7 replicas, spread and every environment fault enabled), so each clause
// of the transition set contributes.
func TestCollectAllocFree(t *testing.T) {
	p := core.DefaultParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 10, 3, 4, 7
	p.CorruptionMult = 5
	p.DomainSpreadRate = 4
	p.PartitionRate, p.PartitionHealRate = 2, 4
	p.CampaignRate, p.CampaignSize, p.CampaignProb = 0.5, 3, 0.5
	p.RepairCrew = 1
	s := mustNew(t, p, rng.New(1))
	for i := 0; i < 40; i++ {
		s.Step(math.Inf(1))
	}
	buf := s.collect(nil)
	if len(buf) < 50 {
		t.Fatalf("only %d transitions enabled; the state is too small to test", len(buf))
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = s.collect(buf) }); allocs != 0 {
		t.Fatalf("collect allocates %v times per call into a warmed buffer, want 0", allocs)
	}
}
