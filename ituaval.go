// Package ituaval is the public facade of the ITUA probabilistic-validation
// library, a from-scratch Go reproduction of Singh, Cukier & Sanders,
// "Probabilistic Validation of an Intrusion-Tolerant Replication System"
// (DSN 2003).
//
// The implementation lives in internal packages; this package re-exports
// the surface a downstream user needs:
//
//   - Params/Build: configure and build the composed SAN model of the ITUA
//     replication system (internal/core);
//   - Measures on the built model: unavailability, unreliability, replicas
//     running, load per host, fraction of corrupt hosts in an excluded
//     domain, fraction of excluded domains;
//   - Simulate: replicated discrete-event simulation with confidence
//     intervals (internal/sim + internal/reward);
//   - RunExperiment: the pre-canned paper studies and ablations
//     (internal/study);
//   - DirectRun: the independent direct simulator used for
//     cross-validation (internal/ituadirect).
//
// For full control (custom SAN models, the numerical CTMC solver, custom
// reward variables) see the internal packages; they are documented and
// tested as the real API of the repository.
package ituaval

import (
	"context"
	"io"

	"ituaval/internal/core"
	"ituaval/internal/ituadirect"
	"ituaval/internal/reward"
	"ituaval/internal/rng"
	"ituaval/internal/sim"
	"ituaval/internal/study"
)

// Params configures the ITUA model; see internal/core.Params for the full
// field documentation.
type Params = core.Params

// Model is the built, composed ITUA SAN with its measure constructors.
type Model = core.Model

// Policy selects the management algorithm.
type Policy = core.Policy

// Management policies.
const (
	DomainExclusion = core.DomainExclusion
	HostExclusion   = core.HostExclusion
)

// DefaultParams returns the paper's baseline attacker/detection
// configuration; topology fields must be set by the caller.
func DefaultParams() Params { return core.DefaultParams() }

// Build constructs and finalizes the composed ITUA model.
func Build(p Params) (*Model, error) { return core.Build(p) }

// Var is a reward variable (measure) evaluated per replication.
type Var = reward.Var

// Estimate is a point estimate with a 95% confidence half-width.
type Estimate = sim.Estimate

// SimSpec configures a replicated simulation; see internal/sim.Spec.
type SimSpec = sim.Spec

// SimResults holds aggregated estimates; see internal/sim.Results.
type SimResults = sim.Results

// Simulate runs a replicated terminating simulation.
func Simulate(spec SimSpec) (*SimResults, error) { return sim.Run(spec) }

// SimulateContext is Simulate with cooperative cancellation: cancelling ctx
// stops the study and returns the partial results accumulated so far
// alongside ctx.Err(). Replications that panic, overrun spec.RepDeadline,
// or exhaust their firing budget are isolated and recorded in
// Results.Failures with the seed that reproduces them.
func SimulateContext(ctx context.Context, spec SimSpec) (*SimResults, error) {
	return sim.RunContext(ctx, spec)
}

// ReplicationError describes one failed replication (panic, watchdog
// deadline, or firing budget) with enough information to reproduce it.
type ReplicationError = sim.ReplicationError

// Replay re-executes a single replication of spec deterministically and
// returns its failure (nil if it completes cleanly). Use it to reproduce a
// failure recorded in SimResults.Failures under a debugger.
func Replay(spec SimSpec, rep int) *ReplicationError { return sim.Replay(spec, rep) }

// StudyConfig controls experiment effort (replications, seed, workers).
type StudyConfig = study.Config

// Figure is a reproduced paper figure (panels of series with CIs).
type Figure = study.Figure

// Experiments returns every id in the study registry, sorted (study.IDs).
func Experiments() []string { return study.IDs() }

// RunExperiment reproduces one registered experiment.
func RunExperiment(id string, cfg StudyConfig) (*Figure, error) { return study.Run(id, cfg) }

// RunExperimentContext is RunExperiment with cooperative cancellation. With
// cfg.Checkpoint set, every completed sweep point is persisted before the
// next begins, so an interrupted experiment can be resumed bit-identically.
func RunExperimentContext(ctx context.Context, id string, cfg StudyConfig) (*Figure, error) {
	return study.RunContext(ctx, id, cfg)
}

// StudyCheckpoint persists completed sweep points for resumable studies.
type StudyCheckpoint = study.Checkpoint

// OpenStudyCheckpoint opens (resume=true: loads) a checkpoint file to pass
// as StudyConfig.Checkpoint.
func OpenStudyCheckpoint(path string, resume bool) (*StudyCheckpoint, error) {
	return study.OpenCheckpoint(path, resume)
}

// WriteFigureText renders a figure as aligned text tables.
func WriteFigureText(w io.Writer, f *Figure) error { return f.WriteText(w) }

// DirectResult is a single replication of the independent direct simulator.
type DirectResult = ituadirect.Result

// DirectRun executes one replication of the direct (non-SAN) ITUA
// simulator, used to cross-validate the SAN model.
func DirectRun(p Params, seed uint64, horizons []float64) (DirectResult, error) {
	return ituadirect.Run(p, rng.New(seed), horizons)
}

// DirectRunContext is DirectRun with cooperative cancellation and panic
// isolation (a panicking run returns an error instead of crashing).
func DirectRunContext(ctx context.Context, p Params, seed uint64, horizons []float64) (DirectResult, error) {
	return ituadirect.RunContext(ctx, p, rng.New(seed), horizons)
}
