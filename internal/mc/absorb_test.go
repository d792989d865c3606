package mc

import (
	"math"
	"testing"

	"ituaval/internal/san"
)

// buildStageDecay builds a chain up -> degraded -> down (absorbing) with
// rates l1, l2; closed forms: MTTA = 1/l1 + 1/l2, expected time in
// "degraded" = 1/l2.
func buildStageDecay(t *testing.T, l1, l2 float64) (*san.Model, *san.Place) {
	t.Helper()
	m := san.NewModel("stages")
	stage := m.Place("stage", 0) // 0 up, 1 degraded, 2 down
	m.AddActivity(san.ActivityDef{
		Name: "degrade", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return l1 },
		Enabled: func(s *san.State) bool { return s.Get(stage) == 0 },
		Reads:   []*san.Place{stage},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(stage, 1) }}},
	})
	m.AddActivity(san.ActivityDef{
		Name: "die", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return l2 },
		Enabled: func(s *san.State) bool { return s.Get(stage) == 1 },
		Reads:   []*san.Place{stage},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(stage, 2) }}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m, stage
}

func TestAbsorptionStageDecay(t *testing.T) {
	const l1, l2 = 0.5, 2.0
	m, _ := buildStageDecay(t, l1, l2)
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Absorption()
	if err != nil {
		t.Fatal(err)
	}
	if res.AbsorbingStates != 1 {
		t.Fatalf("absorbing states = %d", res.AbsorbingStates)
	}
	if math.Abs(res.Prob-1) > 1e-9 {
		t.Fatalf("absorption probability = %v", res.Prob)
	}
	want := 1/l1 + 1/l2
	if math.Abs(res.MeanTime-want) > 1e-8 {
		t.Fatalf("MTTA = %v, want %v", res.MeanTime, want)
	}
}

func TestExpectedRewardToAbsorption(t *testing.T) {
	const l1, l2 = 0.5, 2.0
	m, stage := buildStageDecay(t, l1, l2)
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Expected total time spent degraded before absorption = 1/l2.
	got, err := c.ExpectedRewardToAbsorption(func(s *san.State) float64 {
		if s.Get(stage) == 1 {
			return 1
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1/l2) > 1e-8 {
		t.Fatalf("time degraded = %v, want %v", got, 1/l2)
	}
}

func TestAbsorptionNoAbsorbingStates(t *testing.T) {
	m, _ := buildTwoState(t, 1, 2) // irreducible: no absorbing state
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Absorption()
	if err != nil {
		t.Fatal(err)
	}
	if res.AbsorbingStates != 0 || !math.IsInf(res.MeanTime, 1) || res.Prob != 0 {
		t.Fatalf("res = %+v", res)
	}
	if _, err := c.ExpectedRewardToAbsorption(func(*san.State) float64 { return 1 }); err == nil {
		t.Fatal("expected divergence error")
	}
}

func TestAbsorptionMatchesSimulatedMTTA(t *testing.T) {
	// A branching decay: from up, die directly (p small) or degrade.
	m := san.NewModel("branchdecay")
	stage := m.Place("stage", 0)
	m.AddActivity(san.ActivityDef{
		Name: "leave", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return 1 },
		Enabled: func(s *san.State) bool { return s.Get(stage) == 0 },
		Reads:   []*san.Place{stage},
		Cases: []san.Case{
			{Prob: 0.3, Effect: func(ctx *san.Context) { ctx.State.Set(stage, 2) }}, // die
			{Prob: 0.7, Effect: func(ctx *san.Context) { ctx.State.Set(stage, 1) }}, // degrade
		},
	})
	m.AddActivity(san.ActivityDef{
		Name: "die", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return 4 },
		Enabled: func(s *san.State) bool { return s.Get(stage) == 1 },
		Reads:   []*san.Place{stage},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(stage, 2) }}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Absorption()
	if err != nil {
		t.Fatal(err)
	}
	// MTTA = 1 (mean in up) + 0.7 * 1/4.
	want := 1 + 0.7*0.25
	if math.Abs(res.MeanTime-want) > 1e-8 {
		t.Fatalf("MTTA = %v, want %v", res.MeanTime, want)
	}
}
