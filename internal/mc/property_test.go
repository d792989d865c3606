package mc

import (
	"fmt"
	"math"
	mrand "math/rand"
	"testing"

	"ituaval/internal/reward"
	"ituaval/internal/san"
	"ituaval/internal/sim"
)

// buildRandomMigration builds a random small Markovian SAN from the
// given source of randomness: tokens migrate among a few bounded places
// via arrival, departure, and transfer activities with random rates, and
// some activities branch across two destinations with a random case
// split. Everything is exponential and effect-deterministic, so the
// model is exactly generateable, yet the topology, rates, and case
// probabilities differ per seed.
func buildRandomMigration(r *mrand.Rand) *san.Model {
	const nPlaces, cap = 3, 2
	m := san.NewModel("randmig")
	places := make([]*san.Place, nPlaces)
	for i := range places {
		places[i] = m.Place(fmt.Sprintf("p%d", i), san.Marking(r.Intn(2)))
	}
	total := func(s *san.State) int {
		n := 0
		for _, p := range places {
			n += s.Int(p)
		}
		return n
	}
	rate := func() float64 { return 0.3 + 2.7*r.Float64() }
	// Arrivals into a random place, possibly branching across two.
	for a := 0; a < 2; a++ {
		d1 := places[r.Intn(nPlaces)]
		d2 := places[r.Intn(nPlaces)]
		pr := 0.2 + 0.6*r.Float64()
		rt := rate()
		m.AddActivity(san.ActivityDef{
			Name: fmt.Sprintf("arrive%d", a), Kind: san.Timed,
			Rate:    func(*san.State) float64 { return rt },
			Enabled: func(s *san.State) bool { return total(s) < nPlaces*cap },
			Reads:   places,
			Cases: []san.Case{
				{Prob: pr, Effect: func(ctx *san.Context) { ctx.State.Add(d1, 1) }},
				{Prob: 1 - pr, Effect: func(ctx *san.Context) { ctx.State.Add(d2, 1) }},
			},
		})
	}
	// Transfers between random distinct places and departures, with
	// marking-dependent service speed-up half the time.
	for a := 0; a < 3; a++ {
		src := places[r.Intn(nPlaces)]
		dst := places[(r.Intn(nPlaces-1)+1)%nPlaces]
		rt := rate()
		scaled := r.Intn(2) == 0
		rateOf := func(s *san.State) float64 {
			if scaled {
				return rt * float64(s.Get(src))
			}
			return rt
		}
		if r.Intn(3) == 0 { // departure
			m.AddActivity(san.ActivityDef{
				Name: fmt.Sprintf("depart%d", a), Kind: san.Timed,
				Rate:    rateOf,
				Enabled: func(s *san.State) bool { return s.Get(src) > 0 },
				Reads:   []*san.Place{src},
				Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Add(src, -1) }}},
			})
		} else {
			m.AddActivity(san.ActivityDef{
				Name: fmt.Sprintf("move%d", a), Kind: san.Timed,
				Rate:    rateOf,
				Enabled: func(s *san.State) bool { return s.Get(src) > 0 && s.Int(dst) < cap },
				Reads:   []*san.Place{src, dst},
				Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
					ctx.State.Add(src, -1)
					ctx.State.Add(dst, 1)
				}}},
			})
		}
	}
	if err := m.Finalize(); err != nil {
		panic(err)
	}
	return m
}

// TestSimulatorMatchesSolverOnRandomModels is the property-based version
// of the simulator-vs-solver agreement check: on a family of randomized
// small Markovian SANs the discrete-event engine's 95% intervals must
// cover the uniformization values of a time-average and an at-time
// measure. Tolerance is 3.5 half-widths (~Bonferroni-safe across the
// seeds) so the test is sharp against real bias yet stable in CI.
func TestSimulatorMatchesSolverOnRandomModels(t *testing.T) {
	const T = 4.0
	for _, seed := range []int64{3, 17, 52, 91} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := buildRandomMigration(mrand.New(mrand.NewSource(seed)))
			c, err := Generate(m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			tokens := func(s *san.State) float64 {
				n := 0.0
				for _, p := range m.Places() {
					n += float64(s.Get(p))
				}
				return n
			}
			wantAvg, err := c.IntervalAverageReward(T, tokens)
			if err != nil {
				t.Fatal(err)
			}
			wantAt, err := c.TransientReward(T, tokens)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(sim.Spec{
				Model: m, Until: T, Reps: 4000, Seed: uint64(seed) + 1000, Validate: true,
				Vars: []reward.Var{
					&reward.TimeAverage{VarName: "avg", F: tokens, From: 0, To: T},
					&reward.AtTime{VarName: "at", F: tokens, T: T},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("states=%d avg exact=%.6f at exact=%.6f", c.NumStates(), wantAvg, wantAt)
			for name, want := range map[string]float64{"avg": wantAvg, "at": wantAt} {
				est := res.MustGet(name)
				if math.Abs(est.Mean-want) > 3.5*est.HalfWidth95 {
					t.Errorf("%s: sim %v ± %v vs exact %v (off by %.1f half-widths)",
						name, est.Mean, est.HalfWidth95, want, math.Abs(est.Mean-want)/est.HalfWidth95)
				}
			}
		})
	}
}
