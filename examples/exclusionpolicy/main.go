// Exclusion-policy comparison: the design question of Section 4.3. Should
// the management infrastructure convict a whole security domain when one of
// its hosts is caught, or just the host? This example sweeps the
// intra-domain attack-spread rate and, instead of eyeballing two noisy
// independent curves, pairs the policies on common random numbers: every
// replication runs both policies on identical per-role randomness, so the
// printed host-minus-domain delta carries a paired-t confidence interval
// tight enough to resolve the sign — and the crossover — at a fraction of
// the replications an independent design would need. The final column
// reports the variance-reduction factor (paired delta variance versus the
// independent design at equal replications).
package main

import (
	"context"
	"fmt"
	"log"

	"ituaval/internal/core"
	"ituaval/internal/precision"
	"ituaval/internal/reward"
	"ituaval/internal/study"
)

const (
	horizon = 10.0
	reps    = 1500
)

func params(spread float64, policy core.Policy) core.Params {
	p := core.DefaultParams()
	p.NumDomains = 10
	p.HostsPerDomain = 3
	p.NumApps = 4
	p.RepsPerApp = 7
	p.CorruptionMult = 5
	p.DomainSpreadRate = spread
	p.Policy = policy
	return p
}

func main() {
	spreads := []float64{0, 2, 4, 6, 8, 10}
	fmt.Println("10 domains x 3 hosts, 4 apps x 7 replicas, corruption multiplier 5, 10 h horizon")
	fmt.Printf("CRN-paired host-minus-domain deltas, %d replications per policy\n\n", reps)
	fmt.Printf("%7s | %32s | %32s\n", "", "unavailability [0,10]", "unreliability [0,10]")
	fmt.Printf("%7s | %25s %6s | %25s %6s\n", "spread", "delta (host - domain)", "VRF", "delta (host - domain)", "VRF")

	// One CRN pair per spread rate: host exclusion is arm A, domain
	// exclusion arm B. The pairs run at root seed 7, each at its own seed
	// offset, so no two pairs share replication streams.
	var pts []study.PointSpec
	for i, spread := range spreads {
		dom := params(spread, core.DomainExclusion)
		pts = append(pts, study.PointSpec{
			Label: fmt.Sprintf("spread=%v", spread), Params: params(spread, core.HostExclusion), PairedWith: &dom,
			Until: horizon, SeedOffset: uint64(i), Vars: func(m *core.Model) []reward.Var {
				return []reward.Var{
					m.Unavailability("u", 0, 0, horizon),
					m.Unreliability("r", 0, horizon),
				}
			},
		})
	}
	prs, err := study.RunSweep(context.Background(), study.Config{Reps: reps, Seed: 7}, pts, study.SweepHooks{})
	if err != nil {
		log.Fatal(err)
	}

	var du, dhw []float64
	for i, pr := range prs {
		u, r := pr.Est["u.delta"], pr.Est["r.delta"]
		fmt.Printf("%7.0f | %10.4f ±%7.4f %5s %6.1f | %10.4f ±%7.4f %5s %6.1f\n",
			spreads[i],
			u.Mean, u.HalfWidth95, sign(u.Min, u.Max), pr.Est["u.vrf"].Mean,
			r.Mean, r.HalfWidth95, sign(r.Min, r.Max), pr.Est["r.vrf"].Mean)
		du = append(du, u.Mean)
		dhw = append(dhw, u.HalfWidth95)
	}

	fmt.Println()
	for _, c := range precision.Crossovers(spreads, du, dhw) {
		state := "but the bracketing deltas are within noise"
		if c.Resolved {
			state = "resolved by the paired intervals"
		}
		fmt.Printf("unavailability delta changes sign near spread %.1f (%s)\n", c.X, state)
	}
	fmt.Println("\nReading: a negative delta means host exclusion wins; it does while")
	fmt.Println("attacks stay contained. Once the attack spreads quickly inside a")
	fmt.Println("domain, preemptively excluding the whole domain is the better design,")
	fmt.Println("matching the paper's conclusion — and the paired intervals say where")
	fmt.Println("the switch happens.")
}

// sign renders whether a paired interval resolves the delta's sign.
func sign(lo, hi float64) string {
	switch {
	case hi < 0:
		return "A<B"
	case lo > 0:
		return "A>B"
	default:
		return "~"
	}
}
