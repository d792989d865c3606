package study

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/integrity"
	"ituaval/internal/reward"
	"ituaval/internal/rng"
	"ituaval/internal/san"
	"ituaval/internal/sim"
)

// intrusionWatch records the largest intrusions marking seen after any
// firing of a replication.
type intrusionWatch struct {
	place *san.Place
	peak  san.Marking
}

func (w *intrusionWatch) Init(s *san.State, _ float64)       { w.peak = max(w.peak, s.Get(w.place)) }
func (*intrusionWatch) Advance(*san.State, float64, float64) {}
func (w *intrusionWatch) Fired(s *san.State, _ *san.Activity, _ int, _ float64) {
	w.peak = max(w.peak, s.Get(w.place))
}
func (*intrusionWatch) Done(*san.State, float64) {}
func (*intrusionWatch) Results(func(float64))    {}

// latchPoints is every Figure-5 and faults grid point: the sweeps that
// simulate the model without Params.Analytic.
func latchPoints(t *testing.T) []PointSpec {
	pts := append(fig5Grid(), faultsGrid()...)
	for _, pt := range pts {
		if pt.Params.Analytic {
			t.Fatalf("%s: grid point sets Analytic", pt.Label)
		}
	}
	return pts
}

// TestIntrusionsLatchAtOne: on every Figure-5 and faults grid point,
// built without Params.Analytic, the intrusions place never exceeds 1
// after any firing, while many replications do reach 1, so the latch is
// exercised and not merely unreached.
func TestIntrusionsLatchAtOne(t *testing.T) {
	const reps = 40
	for _, pt := range latchPoints(t) {
		m, err := core.Build(pt.Params)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine(m.SAN, false)
		root := rng.New(1 + pt.SeedOffset)
		hit := 0
		for rep := range reps {
			w := &intrusionWatch{place: m.Intrusions}
			if err := eng.RunOnce(pt.Until, root.Derive(uint64(rep)), []reward.Observer{w}, 0); err != nil {
				t.Fatal(err)
			}
			if w.peak > 1 {
				t.Fatalf("%s rep %d: intrusions reached %d, want at most 1", pt.Label, rep, w.peak)
			}
			if w.peak == 1 {
				hit++
			}
		}
		if hit == 0 {
			t.Errorf("%s: no replication of %d saw an intrusion", pt.Label, reps)
		}
	}
}

// TestAnalyticFlagInert: with the latch in every mode, Params.Analytic
// changes nothing a simulation computes. sim.RunFlat at a fixed seed
// gives bit-identical estimates, per-replication values and firing
// counts with the flag on and off, and the model declares the intrusions
// bound either way, so integrity.DeclaredBounds enforces it.
func TestAnalyticFlagInert(t *testing.T) {
	for _, pt := range latchPoints(t) {
		var runs [2]sim.FlatResult
		for i, analytic := range []bool{false, true} {
			p := pt.Params
			p.Analytic = analytic
			m, err := core.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			if b, ok := m.SAN.BoundOf(m.Intrusions); !ok || b != 1 {
				t.Fatalf("%s analytic=%v: intrusions bound %d (declared %v), want 1", pt.Label, analytic, b, ok)
			}
			st := m.SAN.NewState()
			st.Set(m.Intrusions, 2)
			if integrity.DeclaredBounds(m.SAN).Check(st) == nil {
				t.Fatalf("%s analytic=%v: DeclaredBounds accepts intrusions = 2", pt.Label, analytic)
			}
			spec := sim.Spec{Model: m.SAN, Until: pt.Until, Reps: 60, Seed: 1 + pt.SeedOffset,
				Workers: 1, Vars: pt.Vars(m), KeepPerRep: true}
			runs[i] = sim.RunFlat(context.Background(), []sim.Spec{spec}, 1)[0]
			if runs[i].Err != nil {
				t.Fatal(runs[i].Err)
			}
		}
		if off, on := resultBits(runs[0].Results), resultBits(runs[1].Results); off != on {
			t.Errorf("%s: Analytic changes the results\noff %s\non  %s", pt.Label, off, on)
		}
	}
}

// resultBits renders a run's estimates, per-replication values and
// firings with every float as its bit pattern.
func resultBits(r *sim.Results) string {
	s := fmt.Sprintf("firings=%d completed=%d", r.TotalFirings, r.Completed)
	for _, e := range r.Estimates {
		s += fmt.Sprintf(" %s:%x/%x/%d/%x/%x", e.Name, math.Float64bits(e.Mean), math.Float64bits(e.HalfWidth95),
			e.N, math.Float64bits(e.Min), math.Float64bits(e.Max))
	}
	for _, vals := range r.PerRep {
		for _, v := range vals {
			s += fmt.Sprintf(" %x", math.Float64bits(v))
		}
	}
	return s
}
