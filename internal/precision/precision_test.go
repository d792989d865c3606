package precision

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ituaval/internal/reward"
	"ituaval/internal/rng"
	"ituaval/internal/san"
	"ituaval/internal/sim"
)

// buildRepairModel is a tiny two-state availability model: a unit fails at
// rate 1 and repairs at rate 4; the measure is its availability over
// [0, 10]. Cheap enough for schedule tests, noisy enough to need many
// replications for a tight interval.
func buildRepairModel(t *testing.T, repairRate float64) (*san.Model, reward.Var) {
	t.Helper()
	m := san.NewModel("repair")
	up := m.Place("up", 1)
	m.AddActivity(san.ActivityDef{
		Name: "fail", Kind: san.Timed,
		Dist:    func(*san.State) rng.Dist { return rng.Expo(1) },
		Enabled: func(s *san.State) bool { return s.Get(up) == 1 },
		Reads:   []*san.Place{up},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(up, 0) }}},
	})
	m.AddActivity(san.ActivityDef{
		Name: "repair", Kind: san.Timed,
		Dist:    func(*san.State) rng.Dist { return rng.Expo(repairRate) },
		Enabled: func(s *san.State) bool { return s.Get(up) == 0 },
		Reads:   []*san.Place{up},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(up, 1) }}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	v := &reward.TimeAverage{VarName: "avail", From: 0, To: 10,
		F: func(s *san.State) float64 { return float64(s.Get(up)) }}
	return m, v
}

func repairSpec(t *testing.T, repairRate float64, seed uint64) sim.Spec {
	t.Helper()
	m, v := buildRepairModel(t, repairRate)
	return sim.Spec{Model: m, Until: 10, Seed: seed, Vars: []reward.Var{v}}
}

func TestSequentialStoppingTerminates(t *testing.T) {
	spec := Spec{
		Sim:         repairSpec(t, 4, 11),
		Targets:     []Target{{Var: "avail", RelHW: 0.02}},
		InitialReps: 16,
		MaxReps:     1 << 14,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("stopping did not reach the target within %d reps", spec.MaxReps)
	}
	est := res.Results.MustGet("avail")
	if est.HalfWidth95 > 0.02*math.Abs(est.Mean) {
		t.Fatalf("stopped with hw %v > 2%% of mean %v", est.HalfWidth95, est.Mean)
	}
	if res.Results.Reps >= spec.MaxReps {
		t.Fatalf("used all %d reps; target should be reachable sooner", spec.MaxReps)
	}
	if res.Batches < 2 {
		t.Fatalf("expected several batches from a 16-rep start, got %d", res.Batches)
	}
	// The schedule is geometric: total reps after the first batch double
	// (growth 2), so the total must be 16·2^k.
	if r := res.Results.Reps; r&(r-1) != 0 {
		t.Errorf("total reps %d is not on the geometric schedule", r)
	}
}

func TestSequentialStoppingHitsCap(t *testing.T) {
	spec := Spec{
		Sim:         repairSpec(t, 4, 12),
		Targets:     []Target{{Var: "avail", RelHW: 1e-9}},
		InitialReps: 16,
		MaxReps:     64,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("an unreachable target was reported met")
	}
	if res.Results.Reps != 64 {
		t.Fatalf("ran %d reps, want the full cap of 64", res.Results.Reps)
	}
}

// TestSequentialEqualsSingleRun pins the batching exactness: the merged
// schedule reproduces the per-replication trajectories of one monolithic
// run of the same total bit-for-bit, and the aggregated moments agree to
// accumulator-merge rounding (the Chan et al. merge reorders floating-point
// additions, so the last few bits of the half-width may differ).
func TestSequentialEqualsSingleRun(t *testing.T) {
	spec := Spec{
		Sim:         repairSpec(t, 4, 13),
		Targets:     []Target{{Var: "avail", RelHW: 0.05}},
		InitialReps: 16,
		MaxReps:     1 << 14,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	single := spec.Sim
	single.KeepPerRep = true
	single.Reps = res.Results.Reps
	want, err := sim.Run(single)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Results.PerRep, want.PerRep) {
		t.Fatal("batched per-replication values differ from monolithic run")
	}
	for i, got := range res.Results.Estimates {
		ref := want.Estimates[i]
		if got.N != ref.N || got.Min != ref.Min || got.Max != ref.Max {
			t.Fatalf("estimate %q: counts/extremes differ: %+v vs %+v", got.Name, got, ref)
		}
		if math.Abs(got.Mean-ref.Mean) > 1e-12*math.Abs(ref.Mean) {
			t.Fatalf("estimate %q: mean %v vs %v", got.Name, got.Mean, ref.Mean)
		}
		if math.Abs(got.HalfWidth95-ref.HalfWidth95) > 1e-9*ref.HalfWidth95 {
			t.Fatalf("estimate %q: half-width %v vs %v", got.Name, got.HalfWidth95, ref.HalfWidth95)
		}
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	base := Spec{
		Sim:         repairSpec(t, 4, 14),
		Targets:     []Target{{Var: "avail", RelHW: 0.05}},
		InitialReps: 16,
		MaxReps:     1 << 14,
	}
	var ref *Result
	for _, workers := range []int{1, 3, 8} {
		spec := base
		spec.Sim.Workers = workers
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Batches != ref.Batches || res.Met != ref.Met {
			t.Fatalf("workers=%d: schedule diverged (batches %d vs %d, met %v vs %v)",
				workers, res.Batches, ref.Batches, res.Met, ref.Met)
		}
		if !reflect.DeepEqual(res.Results.Estimates, ref.Results.Estimates) {
			t.Fatalf("workers=%d: estimates differ", workers)
		}
		if !reflect.DeepEqual(res.Results.PerRep, ref.Results.PerRep) {
			t.Fatalf("workers=%d: per-replication values differ", workers)
		}
	}
}

func TestRunValidation(t *testing.T) {
	good := Spec{Sim: repairSpec(t, 4, 16), Targets: []Target{{Var: "avail", RelHW: 0.5}}}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no targets", func(s *Spec) { s.Targets = nil }},
		{"unknown variable", func(s *Spec) { s.Targets = []Target{{Var: "nope", RelHW: 0.5}} }},
		{"no precision requested", func(s *Spec) { s.Targets = []Target{{Var: "avail"}} }},
		{"negative target", func(s *Spec) { s.Targets = []Target{{Var: "avail", RelHW: -1}} }},
		{"max below initial", func(s *Spec) { s.InitialReps = 64; s.MaxReps = 32 }},
	}
	for _, c := range cases {
		spec := good
		c.mutate(&spec)
		if _, err := Run(context.Background(), spec); err == nil {
			t.Errorf("%s: Run accepted an invalid spec", c.name)
		}
	}
	if _, err := Run(context.Background(), good); err != nil {
		t.Fatalf("baseline spec rejected: %v", err)
	}
}

func TestNextBatchSchedule(t *testing.T) {
	// Doubling from 16: cumulative 16, 32, 64, ... capped at 100.
	var got []int
	total := 0
	for total < 100 {
		n := nextBatch(total, 16, 100)
		got = append(got, n)
		total += n
	}
	want := []int{16, 16, 32, 36}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch sizes %v, want %v", got, want)
	}
}
