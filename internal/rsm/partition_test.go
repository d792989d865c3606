package rsm

import (
	"context"
	"testing"

	"ituaval/internal/rng"
)

// The Partition hook severs domain pairs through the same host→domain
// mapping runRep installs (host/HostsPerDomain). A probe blocked by the cut
// must fail cleanly, and a mid-run SetPartition(nil) must heal every link so
// the next probe succeeds — the live counterpart of env.partition_heal.
func TestPartitionDomainPairHealsMidRun(t *testing.T) {
	const H = 2 // hosts per domain: replicas on hosts 0 and 2 → domains 0 and 1
	tr := NewTransport(rng.New(101), 1e-6, 0)
	cl := newCluster(rng.New(202), tr, nil)
	cl.start(0, 0)
	cl.start(1, 2)
	if got := cl.Probe(); got != ProbeCorrect {
		t.Fatalf("before partition: probe = %v, want correct", got)
	}
	da, db := 0, 1
	tr.SetPartition(func(from, to int) bool {
		fa, ta := from/H, to/H
		return (fa == da && ta == db) || (fa == db && ta == da)
	})
	// n=2 needs both echoes; the cut blocks them → quorum-blocked, not hung.
	if got := cl.Probe(); got != ProbeUnavailable {
		t.Fatalf("partitioned: probe = %v, want unavailable", got)
	}
	tr.SetPartition(nil)
	if got := cl.Probe(); got != ProbeCorrect {
		t.Fatalf("healed: probe = %v, want correct", got)
	}
}

// End-to-end: a Run with the full environment-fault vocabulary enabled —
// partitions, attack campaigns, and a bounded repair crew — completes with
// bounded failures, and every probe still agrees with the model oracle
// (whose improper predicate now includes partition blocking).
func TestRunWithEnvironmentFaults(t *testing.T) {
	p := smallParams()
	p.PartitionRate = 4
	p.PartitionHealRate = 2
	p.CampaignRate = 0.5
	p.CampaignSize = 2
	p.CampaignProb = 0.5
	p.RepairCrew = 1
	res, err := Run(context.Background(), Spec{Params: p, T: 6, Reps: 60, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 {
		t.Fatalf("%d failed replications: %v", res.Failed, res.Failures)
	}
	if res.Probes == 0 {
		t.Fatal("no probes issued")
	}
	if res.Divergences != 0 {
		t.Errorf("%d probe divergences in %d probes", res.Divergences, res.Probes)
	}
	if got, want := res.Unavail.Mean(), res.PredUnavail.Mean(); got != want {
		t.Errorf("live unavail %v != oracle %v", got, want)
	}
	// With onset rate 4/h against heal rate 2/h over 6h, the service spends
	// real time partitioned: the live unavailability must see it.
	if res.Unavail.Mean() == 0 {
		t.Error("partitions never made the live service unavailable")
	}
}

// With only partitions enabled (no attack process at all) the live measures
// reduce to pure partition downtime, and healing restores service within
// every replication — no divergences, no failures, nonzero but sub-one
// unavailability.
func TestRunPartitionOnly(t *testing.T) {
	p := smallParams()
	p.TotalAttackRate = 0 // no attacks: the only fault source is the cut
	p.PartitionRate = 2
	p.PartitionHealRate = 4
	res, err := Run(context.Background(), Spec{Params: p, T: 6, Reps: 40, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 {
		t.Fatalf("%d failed replications: %v", res.Failed, res.Failures)
	}
	if res.Divergences != 0 {
		t.Errorf("%d probe divergences in %d probes", res.Divergences, res.Probes)
	}
	u := res.Unavail.Mean()
	if u <= 0 || u >= 1 {
		t.Errorf("partition-only unavailability %v, want in (0,1)", u)
	}
	if res.Unrel.Mean() != 0 {
		t.Errorf("partitions caused Byzantine faults: unrel %v", res.Unrel.Mean())
	}
}
