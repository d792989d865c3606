package study

import (
	"context"
	"fmt"
	"slices"
)

// FaultPartitionRates is the X grid of the environment-fault study: the
// rate at which the network severs a random domain pair, in 1/h.
var FaultPartitionRates = []float64{0, 2, 4, 8}

// FaultCampaignRates is the series grid: correlated attack campaigns off
// and on (each firing targets a Binomial(2, 0.5) batch of hosts).
var FaultCampaignRates = []float64{0, 0.5}

// faultsGrid is the SAN arm of the environment-fault study, series-major
// like the compiled scenario grid (seed offsets 8000+pi): the partition
// rates for each campaign rate, on smallParams with the full environment
// vocabulary armed —
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
			p := smallParams()
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
// Every arm is a point of one checkpointable sweep.
func Faults(ctx context.Context, cfg Config) (*Figure, error) {
	fig := &Figure{ID: "X9", Title: "Environment Faults: Partitions, Campaigns, and a Bounded Repair Crew, 2 Domains x 1 Host"}
	panels := []Panel{
		{ID: "X9a", Measure: "Unavailability for the first 6 hours", XLabel: "partition rate (1/h)"},
		{ID: "X9b", Measure: "Unreliability for the first 6 hours", XLabel: "partition rate (1/h)"},
	}
	measures := []string{"unavail", "unrel"}

	// The SAN sweep, then the direct simulator and the live replica group
	// at every point, then the exact anchor: the partition-only point at
	// rate FaultPartitionRates[1] (the first series has no campaigns)
	// stays generateable (~6·10^5 states), pinning the sampled arms to the
	// uniformization values of the same fault-extended model.
	pts := faultsGrid()
	n := len(pts)
	prs, err := RunSweep(ctx, cfg, slices.Concat(pts, onArm(pts, ArmDirect, 100), onArm(pts, ArmLive, 1000),
		onArm(pts[1:2], ArmExact, 0)), SweepHooks{})
	if err != nil {
		return nil, err
	}

	var names []string
	for _, arm := range []string{"SAN", "direct", "live"} {
		for _, camp := range FaultCampaignRates {
			names = append(names, faultSeriesName(arm, camp))
		}
	}
	layout(panels, measures, names, FaultPartitionRates, prs)
	san, ex := prs[:n], prs[3*n]
	fig.Notes = append(fig.Notes, liveNote(prs[2*n:3*n]),
		fmt.Sprintf("worst pairwise |SAN - other arm| across all points: %.2f combined half-widths (expect < 1 at 95%%)",
			max(worstGap(measures, san, prs[n:2*n]), worstGap(measures, san, prs[2*n:3*n]))),
		fmt.Sprintf("exact anchor (camp=0, part=%g, %d states): unavail %.6g, unrel %.6g",
			pts[1].Params.PartitionRate, ex.Counts["states"], ex.Est["unavail"].Mean, ex.Est["unrel"].Mean))
	fig.Panels = panels
	return fig, nil
}
