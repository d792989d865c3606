package precision

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/reward"
	"ituaval/internal/sim"
	"ituaval/internal/stats"
)

// fig5Spec builds the exclusion-policy study of Figure 5 at a reduced
// topology (6 domains x 2 hosts, 2 apps x 5 replicas) and a 4-hour horizon
// so the test stays fast while keeping the policies' stochastic roles
// aligned for CRN.
func fig5Spec(t *testing.T, policy core.Policy, spread float64, reps int) sim.Spec {
	t.Helper()
	const horizon = 4
	p := core.DefaultParams()
	p.NumDomains = 6
	p.HostsPerDomain = 2
	p.NumApps = 2
	p.RepsPerApp = 5
	p.CorruptionMult = 5
	p.DomainSpreadRate = spread
	p.Policy = policy
	m, err := core.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Spec{
		Model: m.SAN, Until: horizon, Reps: reps, Seed: 97,
		Vars: []reward.Var{
			m.Unavailability("unavail", 0, 0, horizon),
			m.Unreliability("unrel", 0, horizon),
		},
	}
}

// TestCRNPairingReducesFig5DeltaVariance is the headline acceptance test:
// pairing the host- and domain-exclusion configurations on common random
// numbers must shrink the variance of the unavailability delta by at least
// 4x compared with independent sampling at equal replication counts. The
// VRF is exactly that ratio — (VarA + VarB), the delta variance two
// independent runs with these marginals would have, over the paired
// VarDelta.
func TestCRNPairingReducesFig5DeltaVariance(t *testing.T) {
	const reps = 384
	a := fig5Spec(t, core.HostExclusion, 2, reps)
	b := fig5Spec(t, core.DomainExclusion, 2, reps)
	cmp, err := Compare(context.Background(), a, b, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := cmp.Get("unavail")
	if !ok {
		t.Fatal("no unavailability measure")
	}
	if m.N < reps*9/10 {
		t.Fatalf("only %d of %d pairs completed", m.N, reps)
	}
	if m.Corr <= 0 {
		t.Fatalf("CRN produced non-positive unavailability correlation %v", m.Corr)
	}
	if m.VRF < 4 {
		t.Fatalf("variance reduction factor %v < 4 (corr %v)", m.VRF, m.Corr)
	}
	// The paired half-width must beat the independent-design half-width the
	// marginals imply, by the same sqrt(VRF) margin.
	indep := math.Sqrt(m.A.HalfWidth95*m.A.HalfWidth95 + m.B.HalfWidth95*m.B.HalfWidth95)
	if m.HalfWidth >= indep/2 {
		t.Fatalf("paired hw %v not at least 2x tighter than independent %v", m.HalfWidth, indep)
	}
}

// TestCompareMatchesManualPairedT pins Compare's bookkeeping to the stats
// layer: recomputing the paired-t from the returned per-replication values
// must reproduce every measure exactly.
func TestCompareMatchesManualPairedT(t *testing.T) {
	a := repairSpec(t, 4, 21)
	b := repairSpec(t, 6, 21)
	a.Reps, b.Reps = 64, 64
	cmp, err := Compare(context.Background(), a, b, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	m := cmp.Measures[0]
	want, err := stats.PairedT(cmp.A.PerRep[0], cmp.B.PerRep[0], 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if m.PairedResult != want {
		t.Fatalf("measure %+v does not match manual paired-t %+v", m.PairedResult, want)
	}
	// A faster repair rate means strictly higher availability for B on the
	// same randomness; the paired interval should resolve the sign.
	if m.Delta >= 0 || m.Hi >= 0 {
		t.Fatalf("expected a clearly negative availability delta, got %v [%v, %v]", m.Delta, m.Lo, m.Hi)
	}
}

func TestCompareDeterministicAcrossWorkers(t *testing.T) {
	var ref *Comparison
	for _, workers := range []int{1, 3, 8} {
		a := repairSpec(t, 4, 22)
		b := repairSpec(t, 6, 22)
		a.Workers, b.Workers = workers, workers
		a.Reps, b.Reps = 96, 96
		cmp, err := Compare(context.Background(), a, b, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = cmp
			continue
		}
		if !reflect.DeepEqual(cmp.Measures, ref.Measures) {
			t.Fatalf("workers=%d: measures differ", workers)
		}
		if !reflect.DeepEqual(cmp.A.PerRep, ref.A.PerRep) || !reflect.DeepEqual(cmp.B.PerRep, ref.B.PerRep) {
			t.Fatalf("workers=%d: per-replication values differ", workers)
		}
	}
}

// TestCompareSequentialStops drives the paired comparison to a delta
// precision target and checks both the stop condition and the schedule's
// bit-reproducibility across worker counts.
func TestCompareSequentialStops(t *testing.T) {
	opts := Opts{
		Targets:     []Target{{Var: "avail", AbsHW: 0.01}},
		InitialReps: 16,
		MaxReps:     1 << 14,
	}
	var ref *Comparison
	for _, workers := range []int{1, 4} {
		a := repairSpec(t, 4, 23)
		b := repairSpec(t, 6, 23)
		a.Workers, b.Workers = workers, workers
		cmp, err := Compare(context.Background(), a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !cmp.Met {
			t.Fatalf("workers=%d: delta target not reached within %d reps", workers, opts.MaxReps)
		}
		m := cmp.Measures[0]
		if m.HalfWidth > 0.01 {
			t.Fatalf("workers=%d: stopped with delta hw %v > 0.01", workers, m.HalfWidth)
		}
		if cmp.Reps >= opts.MaxReps {
			t.Fatalf("workers=%d: used the whole cap", workers)
		}
		if ref == nil {
			ref = cmp
			continue
		}
		if cmp.Reps != ref.Reps || cmp.Batches != ref.Batches {
			t.Fatalf("schedule diverged across workers: %d/%d reps, %d/%d batches",
				cmp.Reps, ref.Reps, cmp.Batches, ref.Batches)
		}
		if !reflect.DeepEqual(cmp.Measures, ref.Measures) {
			t.Fatal("measures diverged across workers")
		}
	}
}

func TestCompareValidation(t *testing.T) {
	a := repairSpec(t, 4, 24)
	b := repairSpec(t, 6, 24)
	a.Reps, b.Reps = 16, 16

	zero := a
	zero.Reps = 0
	if _, err := Compare(context.Background(), zero, b, Opts{}); err == nil {
		t.Error("Compare accepted zero reps")
	}

	good := Opts{Targets: []Target{{Var: "avail", RelHW: 0.5}}, InitialReps: 16, MaxReps: 64}
	cases := []struct {
		name   string
		mutate func(*Opts)
	}{
		{"unknown variable", func(o *Opts) { o.Targets = []Target{{Var: "nope", RelHW: 0.1}} }},
		{"no precision requested", func(o *Opts) { o.Targets = []Target{{Var: "avail"}} }},
		{"negative target", func(o *Opts) { o.Targets = []Target{{Var: "avail", RelHW: -1}} }},
		{"no initial batch", func(o *Opts) { o.InitialReps = 0 }},
		{"max below initial", func(o *Opts) { o.InitialReps = 64; o.MaxReps = 32 }},
	}
	for _, c := range cases {
		opts := good
		c.mutate(&opts)
		if _, err := Compare(context.Background(), a, b, opts); err == nil {
			t.Errorf("%s: Compare accepted an invalid schedule", c.name)
		}
	}
	if _, err := Compare(context.Background(), a, b, good); err != nil {
		t.Fatalf("baseline schedule rejected: %v", err)
	}
}
