// M/M/1/K validation: exercises the SAN formalism, the discrete-event
// simulator, and the numerical CTMC solver on a queue with a known analytic
// stationary distribution, demonstrating the methodology-level validation
// loop the library supports (simulate, solve numerically, compare to
// theory). This is the "is the substrate trustworthy" example that backs
// the ITUA study.
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
	lambda = 2.0 // arrival rate
	mu     = 3.0 // service rate
	k      = 5   // capacity
)

func buildQueue() (*san.Model, *san.Place) {
	m := san.NewModel("mm1k")
	q := m.Place("queue", 0)
	m.AddActivity(san.ActivityDef{
		Name: "arrive", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return lambda },
		Enabled: func(s *san.State) bool { return s.Int(q) < k },
		Reads:   []*san.Place{q},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Add(q, 1) }}},
	})
	m.AddActivity(san.ActivityDef{
		Name: "serve", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return mu },
		Enabled: func(s *san.State) bool { return s.Get(q) > 0 },
		Reads:   []*san.Place{q},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Add(q, -1) }}},
	})
	if err := m.Finalize(); err != nil {
		log.Fatal(err)
	}
	return m, q
}

func main() {
	model, q := buildQueue()
	length := func(s *san.State) float64 { return float64(s.Get(q)) }

	// Theory: stationary distribution of M/M/1/K.
	rho := lambda / mu
	norm, meanLen := 0.0, 0.0
	for n := 0; n <= k; n++ {
		pn := math.Pow(rho, float64(n))
		norm += pn
		meanLen += float64(n) * pn
	}
	meanLen /= norm

	// Numerical: generate the CTMC and solve for the steady state.
	chain, err := mc.Generate(model, mc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	numeric, err := chain.SteadyStateReward(length)
	if err != nil {
		log.Fatal(err)
	}

	// Simulation: long-run time average over a late window.
	res, err := sim.Run(sim.Spec{
		Model: model, Until: 500, Reps: 64, Seed: 11,
		Vars: []reward.Var{
			&reward.TimeAverage{VarName: "len", F: length, From: 100, To: 500},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	est := res.MustGet("len")

	fmt.Printf("M/M/1/%d with lambda=%g mu=%g (%d CTMC states, %d transitions)\n",
		k, lambda, mu, chain.NumStates(), chain.NumTransitions())
	fmt.Printf("  mean queue length, analytic:      %.6f\n", meanLen)
	fmt.Printf("  mean queue length, uniformization: %.6f\n", numeric)
	fmt.Printf("  mean queue length, simulation:     %.6f ± %.6f\n", est.Mean, est.HalfWidth95)
	if math.Abs(numeric-meanLen) > 1e-9 {
		log.Fatal("numerical solver disagrees with theory")
	}
	if math.Abs(est.Mean-meanLen) > 3*est.HalfWidth95+0.01 {
		log.Fatal("simulation disagrees with theory")
	}
	fmt.Println("  all three agree ✔")
}
