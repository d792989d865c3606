package mc

// A micro-benchmark of the uniformization inner loop on a chain big enough
// to be representative (a three-stage tandem Jackson network with finite
// buffers: (K+1)^3 = 10648 states, ~40k transitions).
// BenchmarkMCUniformStep10k is one uniformized matvec, the one layer the
// end-to-end benchmark in bench/ does not time on its own.

import (
	"testing"

	"ituaval/internal/rng"
	"ituaval/internal/san"
)

// benchTandemK sizes the tandem network: (benchTandemK+1)^3 states.
const benchTandemK = 21

// buildTandem builds a three-stage tandem queue with per-stage buffer
// bound K: external arrivals to stage 1, service moving jobs to the next
// stage, departures from stage 3. All-exponential and deterministic, so
// it is exactly the workload mc.Generate is for.
func buildTandem(k int) *san.Model {
	m := san.NewModel("tandem")
	q1 := m.Place("q1", 0)
	q2 := m.Place("q2", 0)
	q3 := m.Place("q3", 0)
	bound := san.Marking(k)
	move := func(name string, rate float64, from, to *san.Place) {
		m.AddActivity(san.ActivityDef{
			Name: name, Kind: san.Timed,
			Dist: func(*san.State) rng.Dist { return rng.Expo(rate) },
			Enabled: func(s *san.State) bool {
				if from != nil && s.Get(from) == 0 {
					return false
				}
				return to == nil || s.Get(to) < bound
			},
			Reads: readsOf(from, to),
			Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
				if from != nil {
					ctx.State.Add(from, -1)
				}
				if to != nil {
					ctx.State.Add(to, 1)
				}
			}}},
		})
	}
	move("arrive", 1.0, nil, q1)
	move("s1", 1.2, q1, q2)
	move("s2", 1.3, q2, q3)
	move("s3", 1.4, q3, nil)
	if err := m.Finalize(); err != nil {
		panic(err)
	}
	return m
}

func readsOf(ps ...*san.Place) []*san.Place {
	var out []*san.Place
	for _, p := range ps {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

func BenchmarkMCUniformStep10k(b *testing.B) {
	model := buildTandem(benchTandemK)
	c, err := Generate(model, Options{})
	if err != nil {
		b.Fatal(err)
	}
	op := c.uniOperator(nil, c.uniRate(nil))
	defer op.stop()
	v := c.InitialDistribution()
	out := make([]float64, len(v))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.apply(v, out)
		v, out = out, v
	}
}
