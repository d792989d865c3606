package precision

import (
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

func TestNextBatchSchedule(t *testing.T) {
	// Doubling from 16: cumulative 16, 32, 64, ... capped at 100.
	var got []int
	total := 0
	for total < 100 {
		n := NextBatch(total, 16, 100)
		got = append(got, n)
		total += n
	}
	want := []int{16, 16, 32, 36}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch sizes %v, want %v", got, want)
	}
}
