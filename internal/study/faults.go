package study

import (
	"context"
	"fmt"
	"math"

	"ituaval/internal/core"
	"ituaval/internal/exact"
	"ituaval/internal/ituadirect"
	"ituaval/internal/rsm"
	"ituaval/internal/stats"
)

// FaultPartitionRates is the X grid of the environment-fault study: the
// rate at which the network severs a random domain pair, in 1/h.
var FaultPartitionRates = []float64{0, 2, 4, 8}

// FaultCampaignRates is the series grid: correlated attack campaigns off
// and on (each firing targets a Binomial(2, 0.5) batch of hosts).
var FaultCampaignRates = []float64{0, 0.5}

// faultsGrid is the SAN arm of the environment-fault study, series-major
// like the compiled scenario grid (seed offsets 8000+pi): the partition
// rates for each campaign rate, on the same small two-domain topology as
// the live study with the full environment vocabulary armed —
// exponential-healing partitions, correlated attack campaigns (inert while
// CampaignRate is zero), and a single-member repair crew (with one
// application, capacity one is distributionally identical to the unbounded
// crew, so the zero-rate corner stays the baseline).
func faultsGrid() []PointSpec {
	const T = 6.0
	nX := len(FaultPartitionRates)
	pts := make([]PointSpec, len(FaultCampaignRates)*nX)
	for si, camp := range FaultCampaignRates {
		for xi, part := range FaultPartitionRates {
			p := core.DefaultParams()
			p.NumDomains = 2
			p.HostsPerDomain = 1
			p.NumApps = 1
			p.RepsPerApp = 2
			p.CorruptionMult = 5
			p.Policy = core.DomainExclusion
			p.PartitionRate = part
			p.PartitionHealRate = 2
			p.CampaignRate = camp
			p.CampaignSize = 2
			p.CampaignProb = 0.5
			p.RepairCrew = 1
			pi := si*nX + xi
			pts[pi] = PointSpec{Label: fmt.Sprintf("faults camp=%g part=%g", camp, part),
				Params: p, Until: T, SeedOffset: uint64(8000 + pi), Vars: liveVars(T)}
		}
	}
	return pts
}

// faultSeriesName labels one (arm, campaign-rate) series. The SAN arm's
// names double as the series labels of testdata/scenarios/faults.json, so
// the declarative path reproduces the SAN sweep byte-for-byte.
func faultSeriesName(arm string, campRate float64) string {
	return fmt.Sprintf("%s campaignRate=%g", arm, campRate)
}

// Faults is the environment-fault study: over the partition-rate × campaign
// grid of faultsGrid it estimates interval unavailability and
// unreliability three ways — the SAN model, the
// independent direct simulator, and a real fault-injected replica group
// whose transport links are actually severed and healed — and anchors one
// grid point to the numerically exact uniformization values. The notes
// record the live probe/divergence counts, the worst pairwise deviation in
// combined 95% half-widths, and the exact-anchor coverage; the companion
// test (faults_test.go) and `make faultcheck` turn those into assertions.
// Only the SAN arm is checkpointed; the other arms are cheap to recompute
// at study effort and the exact values are deterministic.
func Faults(ctx context.Context, cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	fig := &Figure{ID: "X9", Title: "Environment Faults: Partitions, Campaigns, and a Bounded Repair Crew, 2 Domains x 1 Host"}
	panels := []Panel{
		{ID: "X9a", Measure: "Unavailability for the first 6 hours", XLabel: "partition rate (1/h)"},
		{ID: "X9b", Measure: "Unreliability for the first 6 hours", XLabel: "partition rate (1/h)"},
	}
	measures := []string{"unavail", "unrel"}
	nX := len(FaultPartitionRates)

	// SAN arm: an ordinary checkpointable sweep.
	pts := faultsGrid()
	prs, err := RunSweep(ctx, cfg, pts, SweepHooks{})
	if err != nil {
		return nil, err
	}

	// Direct and live arms, plus the agreement notes.
	sanSeries := make([][2]Series, len(FaultCampaignRates))
	dirSeries := make([][2]Series, len(FaultCampaignRates))
	liveSeries := make([][2]Series, len(FaultCampaignRates))
	for si, camp := range FaultCampaignRates {
		for i := range panels {
			sanSeries[si][i].Name = faultSeriesName("SAN", camp)
			dirSeries[si][i].Name = faultSeriesName("direct", camp)
			liveSeries[si][i].Name = faultSeriesName("live", camp)
		}
	}
	var probes, divergences int64
	worstSigma := 0.0
	for si, camp := range FaultCampaignRates {
		for xi, part := range FaultPartitionRates {
			pi := si*nX + xi
			p, T := pts[pi].Params, pts[pi].Until

			// Direct arm: the independently coded Gillespie simulator.
			dres, err := ituadirect.Replicate(ctx, p, cfg.Seed+uint64(8100+pi), cfg.Reps, T, cfg.Workers)
			if err != nil {
				return nil, fmt.Errorf("faults camp=%g part=%g: direct: %w", camp, part, err)
			}
			dir := [2]*stats.Accumulator{&dres.Unavail, &dres.Unrel}

			// Live arm: fault-injected replica groups whose transport is
			// really partitioned and healed by the environment process.
			lres, err := rsm.Run(ctx, rsm.Spec{
				Params:         p,
				T:              T,
				Reps:           cfg.Reps,
				Seed:           cfg.Seed + uint64(9000+pi),
				Workers:        cfg.Workers,
				RepDeadline:    cfg.RepDeadline,
				MaxFailureFrac: cfg.MaxFailureFrac,
			})
			if err != nil {
				return nil, fmt.Errorf("faults camp=%g part=%g: live: %w", camp, part, err)
			}
			if lres.Failed > 0 {
				cfg.warnf("faults camp=%g part=%g: %d of %d live replications failed (%v)",
					camp, part, lres.Failed, cfg.Reps, lres.Failures)
			}
			probes += lres.Probes
			divergences += lres.Divergences

			live := [2]interface {
				Mean() float64
				HalfWidth(float64) float64
			}{&lres.Unavail, &lres.Unrel}
			for i, name := range measures {
				AppendPoint(&sanSeries[si][i], part, name, prs[pi])
				appendCell(&dirSeries[si][i], part, dir[i].Mean(), dir[i].HalfWidth(0.95), dir[i].N(), cfg.Reps, cfg.Reps, 0, 0)
				appendCell(&liveSeries[si][i], part, live[i].Mean(), live[i].HalfWidth(0.95),
					int64(lres.Reps), cfg.Reps, lres.Reps, lres.Failed, 0)
				e := prs[pi].Est[name]
				for _, pair := range [][2]float64{
					{dir[i].Mean(), dir[i].HalfWidth(0.95)},
					{live[i].Mean(), live[i].HalfWidth(0.95)},
				} {
					if hw := e.HalfWidth95 + pair[1]; hw > 0 {
						if sig := math.Abs(e.Mean-pair[0]) / hw; sig > worstSigma {
							worstSigma = sig
						}
					}
				}
			}
		}
	}
	for i := range panels {
		for si := range FaultCampaignRates {
			panels[i].Series = append(panels[i].Series, sanSeries[si][i])
		}
		for si := range FaultCampaignRates {
			panels[i].Series = append(panels[i].Series, dirSeries[si][i])
		}
		for si := range FaultCampaignRates {
			panels[i].Series = append(panels[i].Series, liveSeries[si][i])
		}
	}

	// Exact anchor: the partition-only point at rate FaultPartitionRates[1]
	// (the first series has no campaigns) stays generateable (~6·10^5
	// states), pinning the sampled arms to the uniformization values of the
	// same fault-extended model.
	anchor := pts[1]
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := exact.NewSolver(anchor.Params, exact.Options{Workers: cfg.Workers})
	if err != nil {
		return nil, fmt.Errorf("faults exact anchor: %w", err)
	}
	exU, err := s.Unavailability(0, anchor.Until)
	if err != nil {
		return nil, fmt.Errorf("faults exact anchor unavailability: %w", err)
	}
	exR, err := s.Unreliability(0, anchor.Until)
	if err != nil {
		return nil, fmt.Errorf("faults exact anchor unreliability: %w", err)
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("live arm: %d client probes, %d oracle divergences (expect 0)", probes, divergences),
		fmt.Sprintf("worst pairwise |SAN - other arm| across all points: %.2f combined half-widths (expect < 1 at 95%%)", worstSigma),
		fmt.Sprintf("exact anchor (camp=0, part=%g, %d states): unavail %.6g, unrel %.6g",
			anchor.Params.PartitionRate, s.C.NumStates(), exU, exR))
	fig.Panels = panels
	return fig, nil
}
