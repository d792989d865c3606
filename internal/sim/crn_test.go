package sim

import (
	"math"
	"reflect"
	"testing"

	"ituaval/internal/reward"
	"ituaval/internal/san"
)

// firstFiring records the time of the first completion of a named activity.
type firstFiring struct {
	name string
}

func (v *firstFiring) Name() string { return "first_" + v.name }
func (v *firstFiring) NewObserver() reward.Observer {
	return &firstFiringObs{act: v.name, t: math.NaN()}
}

type firstFiringObs struct {
	act string
	t   float64
}

func (o *firstFiringObs) Init(*san.State, float64)             {}
func (o *firstFiringObs) Advance(*san.State, float64, float64) {}
func (o *firstFiringObs) Done(*san.State, float64)             {}
func (o *firstFiringObs) Results(emit func(float64))           { emit(o.t) }
func (o *firstFiringObs) Fired(_ *san.State, a *san.Activity, _ int, t float64) {
	if math.IsNaN(o.t) && a.Name() == o.act {
		o.t = t
	}
}

// buildRoleModel builds a model where activity "x" (Expo(1), one shot) is
// repeatedly cancelled and resampled by a fast flipper "y" (Expo(10)),
// while a bystander "z" consumes extraDraws uniforms per firing without
// touching anything x or y read. Under CRN z's draws come from z's own role
// substream, so x's trajectory must not depend on extraDraws; under
// single-stream sampling z's draws interleave with everyone's and shift
// every draw x and y make afterwards.
func buildRoleModel(t *testing.T, extraDraws int) *san.Model {
	t.Helper()
	m := san.NewModel("rolemodel")
	gate := m.Place("gate", 1)
	count := m.Place("count", 0)
	zcount := m.Place("zcount", 0)
	fired := m.Place("fired", 0)
	m.AddActivity(san.ActivityDef{
		Name: "x", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return 1 },
		Enabled: func(s *san.State) bool { return s.Get(gate) == 1 && s.Get(fired) == 0 },
		Reads:   []*san.Place{gate, fired},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(fired, 1) }}},
	})
	m.AddActivity(san.ActivityDef{
		Name: "y", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return 10 },
		Enabled: func(s *san.State) bool { return s.Int(count) < 30 },
		Reads:   []*san.Place{count},
		Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
			ctx.State.Set(gate, 1-ctx.State.Get(gate))
			ctx.State.Add(count, 1)
		}}},
	})
	m.AddActivity(san.ActivityDef{
		Name: "z", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return 10 },
		Enabled: func(s *san.State) bool { return s.Int(zcount) < 30 },
		Reads:   []*san.Place{zcount},
		Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
			ctx.State.Add(zcount, 1)
			for i := 0; i < extraDraws; i++ {
				ctx.Rand.Float64()
			}
		}}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m
}

func firstX(t *testing.T, extraDraws int, crn bool) float64 {
	t.Helper()
	m := buildRoleModel(t, extraDraws)
	res, err := Run(Spec{
		Model: m, Until: 50, Reps: 1, Seed: 99, Workers: 1, CRN: crn, KeepPerRep: true,
		Vars: []reward.Var{&firstFiring{name: "x"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.MustGet("first_x").Mean
}

// TestCRNRoleIsolation is the defining property of role-indexed streams:
// randomness consumed by one activity's role must not perturb another
// activity's draws, even across structural model variants.
func TestCRNRoleIsolation(t *testing.T) {
	withCRN0, withCRN3 := firstX(t, 0, true), firstX(t, 3, true)
	if withCRN0 != withCRN3 {
		t.Fatalf("CRN: x's first firing moved when y drew extra uniforms: %v vs %v", withCRN0, withCRN3)
	}
	without0, without3 := firstX(t, 0, false), firstX(t, 3, false)
	if without0 == without3 {
		t.Fatalf("single-stream control: expected x's firing to move (%v); the role test is vacuous", without0)
	}
}

// TestCRNDeterministicAcrossWorkers: with per-replication aggregation the
// merge order is replication order, so a CRN run must be bit-identical for
// any worker count.
func TestCRNDeterministicAcrossWorkers(t *testing.T) {
	m, q := buildMM1K(t, 2, 3, 5)
	spec := Spec{
		Model: m, Until: 40, Reps: 32, Seed: 7, CRN: true, KeepPerRep: true,
		Vars: []reward.Var{&reward.TimeAverage{VarName: "len",
			F: func(s *san.State) float64 { return float64(s.Get(q)) }, From: 0, To: 40}},
	}
	var ref *Results
	for _, workers := range []int{1, 3, 8} {
		spec.Workers = workers
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref.Estimates, res.Estimates) {
			t.Fatalf("workers=%d: estimates differ:\n%v\nvs\n%v", workers, ref.Estimates, res.Estimates)
		}
		if !reflect.DeepEqual(ref.PerRep, res.PerRep) {
			t.Fatalf("workers=%d: per-replication values differ", workers)
		}
	}
}

// TestBatchedRunsMergeExactly: a run of [0,48) must decompose into
// contiguous batches [0,16) + [16,48) with identical per-replication values
// and counts — the contract sequential stopping builds on.
func TestBatchedRunsMergeExactly(t *testing.T) {
	m, q := buildMM1K(t, 2, 3, 5)
	varsOf := func() []reward.Var {
		return []reward.Var{&reward.TimeAverage{VarName: "len",
			F: func(s *san.State) float64 { return float64(s.Get(q)) }, From: 0, To: 30}}
	}
	base := Spec{Model: m, Until: 30, Seed: 11, CRN: true, KeepPerRep: true, Workers: 2, Vars: varsOf()}

	full := base
	full.Reps = 48
	want, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}

	first := base
	first.Reps = 16
	got, err := Run(first)
	if err != nil {
		t.Fatal(err)
	}
	second := base
	second.FirstRep, second.Reps = 16, 32
	tail, err := Run(second)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Merge(tail); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(want.PerRep, got.PerRep) {
		t.Fatal("merged per-replication values differ from the single run")
	}
	if got.Reps != want.Reps || got.Completed != want.Completed || got.Failed != want.Failed {
		t.Fatalf("merged counts %d/%d/%d, want %d/%d/%d",
			got.Reps, got.Completed, got.Failed, want.Reps, want.Completed, want.Failed)
	}
	ge, we := got.MustGet("len"), want.MustGet("len")
	if ge.N != we.N || math.Abs(ge.Mean-we.Mean) > 1e-12 || math.Abs(ge.HalfWidth95-we.HalfWidth95) > 1e-12 {
		t.Fatalf("merged estimate %+v, want %+v", ge, we)
	}

	// Merging a non-contiguous batch must be refused.
	gap := base
	gap.FirstRep, gap.Reps = 64, 16
	far, err := Run(gap)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Merge(far); err == nil {
		t.Fatal("merging a non-contiguous batch succeeded")
	}
}

// TestAntitheticSpecValidation: with antithetic pairing gone, a CRN batch
// may start and end on any replication, so odd Reps and odd FirstRep are
// valid; a negative FirstRep is still refused.
func TestAntitheticSpecValidation(t *testing.T) {
	m, q := buildMM1K(t, 2, 3, 5)
	vars := []reward.Var{&reward.TimeAverage{VarName: "len",
		F: func(s *san.State) float64 { return float64(s.Get(q)) }, From: 0, To: 5}}
	if _, err := Run(Spec{Model: m, Until: 5, Reps: 7, Seed: 1, CRN: true, Vars: vars}); err != nil {
		t.Fatalf("odd Reps rejected: %v", err)
	}
	if _, err := Run(Spec{Model: m, Until: 5, Reps: 8, FirstRep: 3, Seed: 1, CRN: true, Vars: vars}); err != nil {
		t.Fatalf("odd FirstRep rejected: %v", err)
	}
	if _, err := Run(Spec{Model: m, Until: 5, Reps: 8, FirstRep: -2, Seed: 1, Vars: vars}); err == nil {
		t.Fatal("negative FirstRep accepted")
	}
}

// TestCRNReplayReproducesFailure: the replay path must honor CRN stream
// derivation, or recorded failures would not reproduce.
func TestCRNReplayReproducesFailure(t *testing.T) {
	m := san.NewModel("panicky")
	p := m.Place("p", 0)
	m.AddActivity(san.ActivityDef{
		Name: "tick", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return 1 },
		Enabled: func(s *san.State) bool { return s.Get(p) == 0 },
		Reads:   []*san.Place{p},
		Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
			if ctx.Rand.Float64() < 0.3 {
				panic("boom")
			}
			ctx.State.Set(p, 1)
		}}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Model: m, Until: 10, Reps: 40, Seed: 21, CRN: true, KeepPerRep: true,
		MaxFailureFrac: 1, Vars: []reward.Var{&firstFiring{name: "tick"}}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Fatal("no failures to replay")
	}
	for _, f := range res.Failures {
		re := Replay(spec, f.Rep)
		if re == nil || re.Kind != FailurePanic {
			t.Fatalf("replay of rep %d did not reproduce the panic: %v", f.Rep, re)
		}
	}
	// A completed replication replays cleanly.
	for j := 0; j < spec.Reps; j++ {
		if !math.IsNaN(res.PerRep[0][j]) {
			if re := Replay(spec, j); re != nil {
				t.Fatalf("replay of completed rep %d failed: %v", j, re)
			}
			break
		}
	}
}
