// Custom SAN: builds a small intrusion-tolerance model from scratch with
// the composition API (Replicate/scoped sharing), the way Section 3 of the
// paper composes Replica/Host/Management submodels in Möbius. The model is
// a triple-redundant sensor with a voter: sensors fail under attack
// (detected with some probability), a repair crew restarts convicted
// sensors, and the system is "up" while at least two sensors agree.
package main

import (
	"fmt"
	"log"
	"os"

	"ituaval/internal/reward"
	"ituaval/internal/san"
	"ituaval/internal/sim"
)

const (
	numSensors = 3
	attackRate = 0.4
	detectRate = 2.0
	detectProb = 0.85
	repairRate = 1.5
)

func main() {
	m := san.NewModel("voted-sensors")
	root := san.Root(m)

	// Shared across all sensor submodels: the count of healthy sensors and
	// the repair queue.
	healthy := root.Place("healthy", numSensors)
	repairQ := root.Place("repair_queue", 0)

	// The sensor template: an atomic submodel instantiated once per sensor
	// (a Möbius Rep node sharing "healthy" and "repair_queue").
	sensor := func(sc *san.Scope) {
		compromised := sc.Place("compromised", 0)
		h := sc.Shared("healthy")
		q := sc.Shared("repair_queue")
		sc.Activity(san.ActivityDef{
			Name: "attack", Kind: san.Timed,
			Rate:    func(*san.State) float64 { return attackRate },
			Enabled: func(s *san.State) bool { return s.Get(compromised) == 0 && s.Get(h) > 0 },
			Reads:   []*san.Place{compromised, h},
			Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
				ctx.State.Set(compromised, 1)
				ctx.State.Add(h, -1)
			}}},
		})
		sc.Activity(san.ActivityDef{
			Name: "detect", Kind: san.Timed,
			Rate:    func(*san.State) float64 { return detectRate },
			Enabled: func(s *san.State) bool { return s.Get(compromised) == 1 },
			Reads:   []*san.Place{compromised},
			Cases: []san.Case{
				{Name: "caught", Prob: detectProb, Effect: func(ctx *san.Context) {
					ctx.State.Set(compromised, 2) // convicted, awaiting repair
					ctx.State.Add(q, 1)
				}},
				{Name: "missed", Prob: 1 - detectProb}, // stays silently corrupt
			},
		})
		sc.Activity(san.ActivityDef{
			Name: "repair", Kind: san.Timed,
			Rate:    func(*san.State) float64 { return repairRate },
			Enabled: func(s *san.State) bool { return s.Get(compromised) == 2 },
			Reads:   []*san.Place{compromised},
			Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
				ctx.State.Set(compromised, 0)
				ctx.State.Add(q, -1)
				ctx.State.Add(h, 1)
			}}},
		})
	}
	san.Replicate(root, "sensor", numSensors, []string{"healthy", "repair_queue"}, sensor)

	if err := m.Finalize(); err != nil {
		log.Fatal(err)
	}
	fmt.Println(m.Summary())

	// Measures: availability of the 2-of-3 vote and expected repair load.
	const T = 24.0
	up := func(s *san.State) float64 {
		if s.Get(healthy) >= 2 {
			return 1
		}
		return 0
	}
	vars := []reward.Var{
		&reward.TimeAverage{VarName: "2-of-3 availability over 24h", F: up, From: 0, To: T},
		&reward.TimeAverage{VarName: "mean repair queue", F: func(s *san.State) float64 {
			return float64(s.Get(repairQ))
		}, From: 0, To: T},
		&reward.FirstPassage{VarName: "P(vote ever lost in 24h)", Pred: func(s *san.State) bool {
			return s.Get(healthy) < 2
		}, By: T},
	}
	res, err := sim.Run(sim.Spec{Model: m, Until: T, Reps: 4000, Seed: 5, Vars: vars})
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range vars {
		fmt.Println(" ", res.MustGet(v.Name()))
	}

	// Bonus: dump the structure for Graphviz (stderr keeps stdout clean).
	fmt.Fprintln(os.Stderr, "-- DOT structure on stderr --")
	if err := san.WriteDOT(os.Stderr, m); err != nil {
		log.Fatal(err)
	}
}
