package study

import (
	"context"
	"fmt"
	"sort"
)

// Runner produces one figure. Runners honor ctx: cancelling it aborts the
// sweep after the current replication batch, and with Config.Checkpoint set
// every completed sweep point has already been persisted, so the run can be
// resumed later with identical results.
type Runner func(context.Context, Config) (*Figure, error)

// Entry is one registered experiment.
type Entry struct {
	// Run produces the experiment's figure.
	Run Runner
	// Description is the one-line summary shown by the discovery surfaces
	// (figures -list, ituaval -list, GET /v1/studies).
	Description string
	// Grid returns the sweep points Run runs, in order. It is the one place
	// the study's grid is written: the model lint lane, the lumpcheck shape
	// sweep and the scenario goldens read it too. Nil for numval, which
	// solves its own reduced model instead of sweeping the ITUA model.
	Grid func() []PointSpec
}

// Registry maps experiment ids (cmd/figures arguments) to experiments.
var Registry = map[string]Entry{
	"fig3": {Fig3, "Figure 3: measures for different distributions of 12 hosts into domains (first 5 h)", fig3Grid},
	"fig4": {Fig4, "Figure 4: measures for 10 domains with a growing number of hosts per domain", fig4Grid},
	"fig5": {Fig5, "Figure 5: domain- vs host-exclusion over intra-domain attack-spread rates", fig5Grid},
	"fig5-paired": {Fig5Paired,
		"Figure 5 on common random numbers: host-minus-domain deltas with paired-t CIs and crossovers", fig5PairedGrid},
	"analytic": {Analytic, "exact (CTMC uniformization) vs simulated measures on a 2-domain configuration", analyticGrid},
	"live": {Live,
		"SAN model vs a real fault-injected replica group (internal/rsm) on a 2-domain configuration", liveGrid},
	"faults": {Faults,
		"environment faults (partitions x campaigns, bounded repair crew): SAN vs direct vs live, exact anchor", faultsGrid},
	"xval": {CrossValidation,
		"cross-validation: SAN engine vs the independent direct simulator on a shared baseline", xvalGrid},
	"numval": {NumericalValidation,
		"numerical validation: simulator vs uniformization of the reduced failure/detection/recovery CTMC", nil},
	"abl-detect": {AblationDetectionRate,
		"ablation: sweep the detection-pipeline rate calibrated for the paper's figures", detectGrid},
	"abl-split":   {AblationRateSplit, "ablation: sweep the host/replica attack-split weight", splitGrid},
	"abl-convict": {AblationConviction, "ablation: exclusion-on-replica-conviction response variants", convictGrid},
	"abl-placement": {AblationPlacement,
		"ablation: recovery placement strategies (uniform, least-loaded, weighted-random)", placementGrid},
}

// Describe returns the one-line description of a registered experiment id,
// or "" for an unknown id.
func Describe(id string) string { return Registry[id].Description }

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run looks up and executes the experiment with the given id.
func Run(id string, cfg Config) (*Figure, error) {
	return RunContext(context.Background(), id, cfg)
}

// RunContext is Run with cooperative cancellation (see Runner).
func RunContext(ctx context.Context, id string, cfg Config) (*Figure, error) {
	e, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("study: unknown experiment %q (known: %v)", id, IDs())
	}
	return e.Run(ctx, cfg)
}
