package reward

import (
	"math"
	"testing"

	"ituaval/internal/san"
)

// scriptedModel builds a one-place model used to drive observers by hand.
func scriptedModel(t *testing.T) (*san.Model, *san.Place, *san.Activity) {
	t.Helper()
	m := san.NewModel("scripted")
	p := m.Place("p", 0)
	a := m.AddActivity(san.ActivityDef{
		Name: "tick", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return 1 },
		Enabled: func(s *san.State) bool { return true },
		Reads:   []*san.Place{p},
		Cases:   []san.Case{{Prob: 1}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m, p, a
}

func collect(o Observer) []float64 {
	var out []float64
	o.Results(func(x float64) { out = append(out, x) })
	return out
}

func TestTimeAverage(t *testing.T) {
	m, p, _ := scriptedModel(t)
	v := &TimeAverage{VarName: "ta", F: func(s *san.State) float64 { return float64(s.Get(p)) }, From: 0, To: 10}
	o := v.NewObserver()
	s := m.NewState()
	o.Init(s, 0)
	o.Advance(s, 0, 4) // p=0 for 4 units
	s.Set(p, 3)
	o.Advance(s, 4, 10) // p=3 for 6 units
	o.Done(s, 10)
	got := collect(o)
	want := 3.0 * 6 / 10
	if len(got) != 1 || math.Abs(got[0]-want) > 1e-12 {
		t.Fatalf("time average = %v, want [%v]", got, want)
	}
}

func TestTimeAverageWindowClipping(t *testing.T) {
	m, p, _ := scriptedModel(t)
	v := &TimeAverage{VarName: "ta", F: func(s *san.State) float64 { return float64(s.Get(p)) }, From: 2, To: 6}
	o := v.NewObserver()
	s := m.NewState()
	s.Set(p, 1)
	s.ResetDirty()
	o.Init(s, 0)
	o.Advance(s, 0, 4)  // clipped to [2,4): 2 units at 1
	o.Advance(s, 4, 10) // clipped to [4,6): 2 units at 1
	o.Done(s, 10)
	got := collect(o)
	if len(got) != 1 || math.Abs(got[0]-1) > 1e-12 {
		t.Fatalf("clipped time average = %v, want [1]", got)
	}
}

func TestAtTime(t *testing.T) {
	m, p, _ := scriptedModel(t)
	v := &AtTime{VarName: "at", F: func(s *san.State) float64 { return float64(s.Get(p)) }, T: 5}
	o := v.NewObserver()
	s := m.NewState()
	o.Init(s, 0)
	o.Advance(s, 0, 3)
	s.Set(p, 7)
	o.Advance(s, 3, 8) // holds at T=5
	s.Set(p, 9)
	o.Advance(s, 8, 10)
	o.Done(s, 10)
	got := collect(o)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("at-time = %v, want [7]", got)
	}
}

func TestAtTimeEndOfRun(t *testing.T) {
	m, p, _ := scriptedModel(t)
	v := &AtTime{VarName: "at", F: func(s *san.State) float64 { return float64(s.Get(p)) }, T: 10}
	o := v.NewObserver()
	s := m.NewState()
	o.Init(s, 0)
	s.Set(p, 4)
	o.Advance(s, 0, 10)
	o.Done(s, 10)
	got := collect(o)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("at-time at end = %v, want [4]", got)
	}
}

func TestAtTimeNotReached(t *testing.T) {
	m, p, _ := scriptedModel(t)
	v := &AtTime{VarName: "at", F: func(s *san.State) float64 { return float64(s.Get(p)) }, T: 50}
	o := v.NewObserver()
	s := m.NewState()
	o.Init(s, 0)
	o.Advance(s, 0, 10)
	o.Done(s, 10)
	if got := collect(o); len(got) != 0 {
		t.Fatalf("at-time beyond horizon = %v, want no observation", got)
	}
}

func TestFirstPassageLatches(t *testing.T) {
	m, p, a := scriptedModel(t)
	v := &FirstPassage{VarName: "fp", Pred: func(s *san.State) bool { return s.Get(p) > 0 }, By: 10}
	o := v.NewObserver()
	s := m.NewState()
	o.Init(s, 0)
	o.Advance(s, 0, 3)
	s.Set(p, 1)
	o.Fired(s, a, 0, 3) // vanishing visit
	s.Set(p, 0)
	o.Fired(s, a, 0, 3)
	o.Advance(s, 3, 10)
	o.Done(s, 10)
	got := collect(o)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("first passage = %v, want [1] (latched on vanishing state)", got)
	}
}

func TestFirstPassageRespectsDeadline(t *testing.T) {
	m, p, a := scriptedModel(t)
	v := &FirstPassage{VarName: "fp", Pred: func(s *san.State) bool { return s.Get(p) > 0 }, By: 5}
	o := v.NewObserver()
	s := m.NewState()
	o.Init(s, 0)
	o.Advance(s, 0, 7)
	s.Set(p, 1)
	o.Fired(s, a, 0, 7) // after deadline
	o.Advance(s, 7, 10)
	o.Done(s, 10)
	got := collect(o)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("first passage = %v, want [0]", got)
	}
}

func TestImpulseMean(t *testing.T) {
	m, p, a := scriptedModel(t)
	v := &ImpulseMean{
		VarName: "imp",
		Match:   func(act *san.Activity, _ int) bool { return act == a },
		V:       func(s *san.State, _ *san.Activity) float64 { return float64(s.Get(p)) },
		From:    0, To: 100,
	}
	o := v.NewObserver()
	s := m.NewState()
	o.Init(s, 0)
	s.Set(p, 2)
	o.Fired(s, a, 0, 1)
	s.Set(p, 4)
	o.Fired(s, a, 0, 2)
	o.Done(s, 10)
	got := collect(o)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("impulse mean = %v, want [3]", got)
	}
}

func TestImpulseMeanNoFirings(t *testing.T) {
	m, _, _ := scriptedModel(t)
	v := &ImpulseMean{
		VarName: "imp",
		Match:   func(*san.Activity, int) bool { return false },
		V:       func(*san.State, *san.Activity) float64 { return 1 },
		From:    0, To: 100,
	}
	o := v.NewObserver()
	s := m.NewState()
	o.Init(s, 0)
	o.Done(s, 10)
	if got := collect(o); len(got) != 0 {
		t.Fatalf("impulse mean with no firings = %v, want none", got)
	}
}

func TestCountWindow(t *testing.T) {
	m, _, a := scriptedModel(t)
	v := &Count{VarName: "cnt", Match: func(act *san.Activity, _ int) bool { return act == a }, From: 2, To: 5}
	o := v.NewObserver()
	s := m.NewState()
	o.Init(s, 0)
	for _, tm := range []float64{1, 2, 3, 5, 6} {
		o.Fired(s, a, 0, tm)
	}
	o.Done(s, 10)
	got := collect(o)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("count = %v, want [3]", got)
	}
}

func TestFuncVar(t *testing.T) {
	made := 0
	v := &Func{VarName: "custom", New: func() Observer {
		made++
		return &firstPassageObs{v: &FirstPassage{Pred: func(*san.State) bool { return false }, By: 1}}
	}}
	if v.Name() != "custom" {
		t.Fatal("name")
	}
	v.NewObserver()
	v.NewObserver()
	if made != 2 {
		t.Fatalf("constructor called %d times", made)
	}
}

func TestFirstPassageTime(t *testing.T) {
	m, p, a := scriptedModel(t)
	v := &FirstPassageTime{VarName: "fpt", Pred: func(s *san.State) bool { return s.Get(p) > 0 }}
	o := v.NewObserver()
	s := m.NewState()
	o.Init(s, 0)
	o.Advance(s, 0, 2)
	s.Set(p, 1)
	o.Fired(s, a, 0, 2.5)
	o.Fired(s, a, 0, 3.5) // later true states must not overwrite
	o.Advance(s, 3.5, 10)
	o.Done(s, 10)
	got := collect(o)
	if len(got) != 1 || got[0] != 2.5 {
		t.Fatalf("first passage time = %v, want [2.5]", got)
	}
}

func TestFirstPassageTimeNever(t *testing.T) {
	m, p, _ := scriptedModel(t)
	v := &FirstPassageTime{VarName: "fpt", Pred: func(s *san.State) bool { return s.Get(p) > 5 }}
	o := v.NewObserver()
	s := m.NewState()
	o.Init(s, 0)
	o.Advance(s, 0, 10)
	o.Done(s, 10)
	if got := collect(o); len(got) != 0 {
		t.Fatalf("first passage time = %v, want none", got)
	}
}
