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

// Registry maps experiment ids (cmd/figures arguments) to runners.
var Registry = map[string]Runner{
	"fig3":          Fig3,
	"fig4":          Fig4,
	"fig5":          Fig5,
	"fig5-paired":   Fig5Paired,
	"analytic":      Analytic,
	"live":          Live,
	"faults":        Faults,
	"xval":          CrossValidation,
	"numval":        NumericalValidation,
	"abl-detect":    AblationDetectionRate,
	"abl-split":     AblationRateSplit,
	"abl-convict":   AblationConviction,
	"abl-placement": AblationPlacement,
}

// descriptions holds a one-line summary per registered experiment id, for
// discovery surfaces (figures -list, ituaval -list, GET /v1/studies).
var descriptions = map[string]string{
	"fig3":          "Figure 3: measures for different distributions of 12 hosts into domains (first 5 h)",
	"fig4":          "Figure 4: measures for 10 domains with a growing number of hosts per domain",
	"fig5":          "Figure 5: domain- vs host-exclusion over intra-domain attack-spread rates",
	"fig5-paired":   "Figure 5 on common random numbers: host-minus-domain deltas with paired-t CIs and crossovers",
	"analytic":      "exact (CTMC uniformization) vs simulated measures on a 2-domain configuration",
	"live":          "SAN model vs a real fault-injected replica group (internal/rsm) on a 2-domain configuration",
	"faults":        "environment faults (partitions x campaigns, bounded repair crew): SAN vs direct vs live, exact anchor",
	"xval":          "cross-validation: SAN engine vs the independent direct simulator on a shared baseline",
	"numval":        "numerical validation: simulator vs uniformization of the reduced failure/detection/recovery CTMC",
	"abl-detect":    "ablation: sweep the detection-pipeline rate calibrated for the paper's figures",
	"abl-split":     "ablation: sweep the host/replica attack-split weight",
	"abl-convict":   "ablation: exclusion-on-replica-conviction response variants",
	"abl-placement": "ablation: recovery placement strategies (uniform, least-loaded, weighted-random)",
}

// Describe returns the one-line description of a registered experiment id,
// or "" for an unknown id.
func Describe(id string) string { return descriptions[id] }

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
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("study: unknown experiment %q (known: %v)", id, IDs())
	}
	return r(ctx, cfg)
}
