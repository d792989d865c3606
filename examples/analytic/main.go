// Analytic study: the Möbius-style numerical path on a reduced
// intrusion-tolerance model. This example builds a small
// replicated-service model (attack/detect/restart with a budget of
// spares) and walks through the whole analytic toolbox: transient
// solution, interval-averaged unavailability, first-passage probability,
// steady state, and mean time to absorption — each cross-checked against
// simulation. The full composed ITUA model is also solvable this way on
// small configurations (the generator enumerates its random placement
// and exclusion choices exhaustively, and the model latches its intrusion
// counter at 1); see internal/exact and `figures analytic` for that
// heavier end of the analytic path.
package main

import (
	"fmt"
	"log"
	"math"

	"ituaval/internal/mc"
	"ituaval/internal/reward"
	"ituaval/internal/san"
	"ituaval/internal/sim"
)

const (
	nReplicas  = 3   // active replicas
	nSpares    = 4   // replacement budget (no repair: eventually exhausted)
	attackRate = 0.5 // per running replica
	detectRate = 2.0 // conviction of a corrupt replica
	startRate  = 6.0 // spare activation
)

func build() (*san.Model, *san.Place, *san.Place, *san.Place) {
	m := san.NewModel("spares")
	good := m.Place("good", nReplicas)
	bad := m.Place("bad", 0)
	spares := m.Place("spares", nSpares)
	m.AddActivity(san.ActivityDef{
		Name: "attack", Kind: san.Timed,
		Rate:    func(s *san.State) float64 { return attackRate * float64(s.Get(good)) },
		Enabled: func(s *san.State) bool { return s.Get(good) > 0 },
		Reads:   []*san.Place{good},
		Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
			ctx.State.Add(good, -1)
			ctx.State.Add(bad, 1)
		}}},
	})
	m.AddActivity(san.ActivityDef{
		Name: "convict", Kind: san.Timed,
		Rate:    func(s *san.State) float64 { return detectRate * float64(s.Get(bad)) },
		Enabled: func(s *san.State) bool { return s.Get(bad) > 0 },
		Reads:   []*san.Place{bad},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Add(bad, -1) }}},
	})
	m.AddActivity(san.ActivityDef{
		Name: "activate", Kind: san.Timed,
		Rate: func(*san.State) float64 { return startRate },
		Enabled: func(s *san.State) bool {
			return s.Get(spares) > 0 && s.Int(good)+s.Int(bad) < nReplicas
		},
		Reads: []*san.Place{spares, good, bad},
		Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
			ctx.State.Add(spares, -1)
			ctx.State.Add(good, 1)
		}}},
	})
	if err := m.Finalize(); err != nil {
		log.Fatal(err)
	}
	return m, good, bad, spares
}

func main() {
	model, good, bad, _ := build()
	improper := func(s *san.State) float64 {
		if 3*s.Int(bad) >= s.Int(good)+s.Int(bad) {
			return 1
		}
		return 0
	}
	dead := func(s *san.State) bool { return s.Get(good) == 0 && s.Get(bad) == 0 }

	chain, err := mc.Generate(model, mc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reduced model: %d CTMC states, %d transitions\n\n", chain.NumStates(), chain.NumTransitions())

	const T = 8.0
	u, err := chain.IntervalAverageReward(T, improper)
	if err != nil {
		log.Fatal(err)
	}
	fp, err := chain.FirstPassageProb(T, func(s *san.State) bool { return improper(s) == 1 })
	if err != nil {
		log.Fatal(err)
	}
	abs, err := chain.Absorption()
	if err != nil {
		log.Fatal(err)
	}
	improperToDeath, err := chain.ExpectedRewardToAbsorption(improper)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("numerical (uniformization / Gauss-Seidel):")
	fmt.Printf("  unavailability over [0,%g]:       %.6f\n", T, u)
	fmt.Printf("  P(improper at least once by %g):  %.6f\n", T, fp)
	fmt.Printf("  mean time to spare exhaustion:    %.4f h (absorption prob %.3f)\n", abs.MeanTime, abs.Prob)
	fmt.Printf("  expected improper hours, total:   %.4f h\n\n", improperToDeath)

	res, err := sim.Run(sim.Spec{
		Model: model, Until: T, Reps: 20000, Seed: 19,
		Vars: []reward.Var{
			&reward.TimeAverage{VarName: "u", F: improper, From: 0, To: T},
			&reward.FirstPassage{VarName: "fp", Pred: func(s *san.State) bool { return improper(s) == 1 }, By: T},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	su, sfp := res.MustGet("u"), res.MustGet("fp")
	fmt.Println("simulation (20000 replications):")
	fmt.Printf("  unavailability over [0,%g]:       %.6f ± %.6f\n", T, su.Mean, su.HalfWidth95)
	fmt.Printf("  P(improper at least once by %g):  %.6f ± %.6f\n", T, sfp.Mean, sfp.HalfWidth95)

	if math.Abs(su.Mean-u) > 3*su.HalfWidth95+1e-3 || math.Abs(sfp.Mean-fp) > 3*sfp.HalfWidth95+1e-3 {
		log.Fatal("simulation and numerical solution disagree")
	}
	fmt.Println("  simulation CIs cover the numerical values ✔")

	// The mean time to exhaustion is also checkable by simulation with a
	// long horizon and the first-passage-time measure.
	resLong, err := sim.Run(sim.Spec{
		Model: model, Until: 200, Reps: 4000, Seed: 23,
		Vars: []reward.Var{&reward.FirstPassageTime{VarName: "mtta", Pred: dead}},
	})
	if err != nil {
		log.Fatal(err)
	}
	mtta := resLong.MustGet("mtta")
	fmt.Printf("\nmean time to exhaustion: numerical %.4f h, simulated %.4f ± %.4f h (n=%d)\n",
		abs.MeanTime, mtta.Mean, mtta.HalfWidth95, mtta.N)
	if math.Abs(mtta.Mean-abs.MeanTime) > 3*mtta.HalfWidth95+0.05 {
		log.Fatal("MTTA disagreement")
	}
	fmt.Println("agreement ✔")
}
