package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"time"

	"ituaval/internal/reward"
	"ituaval/internal/rng"
	"ituaval/internal/san"
	"ituaval/internal/stats"
)

// DefaultMaxFailureFrac is the fraction of replications allowed to fail
// before Run reports an aggregate error, when Spec.MaxFailureFrac is zero.
const DefaultMaxFailureFrac = 0.05

// Spec describes a replicated terminating simulation study.
type Spec struct {
	// Model is the finalized SAN to simulate.
	Model *san.Model
	// Until is the end time of each replication.
	Until float64
	// Reps is the number of independent replications (must be >= 1).
	Reps int
	// Seed is the root seed; replication i uses the derived stream i and
	// results aggregate in replication order, so they are reproducible and
	// bit-identical at every worker count.
	Seed uint64
	// Vars are the reward variables to estimate.
	Vars []reward.Var
	// Workers limits parallelism (0 = GOMAXPROCS).
	Workers int
	// Validate enables read-trace dependency checking (slow; for tests).
	Validate bool
	// MaxFirings bounds the firings per replication (0 = default). A
	// replication exceeding the budget is recorded as a FailureBudget
	// failure; the rest of the study continues.
	MaxFirings int64
	// RepDeadline, when positive, bounds the wall-clock time of each
	// replication: a replication exceeding it is aborted and recorded as a
	// FailureDeadline failure instead of hanging the study (watchdog).
	RepDeadline time.Duration
	// MaxFailureFrac is the largest fraction of replications allowed to
	// fail (panic, watchdog deadline, firing budget, model error) before
	// RunContext reports an aggregate error alongside the partial results.
	// Zero selects DefaultMaxFailureFrac; a negative value tolerates no
	// failures at all. Estimates always aggregate the surviving
	// replications only — see Results for the bias caveat.
	MaxFailureFrac float64
	// CRN enables common-random-numbers mode: every stochastic role (one
	// activity's firing delays, case choices and effect draws; the
	// initialization hook; instantaneous races) samples from its own
	// substream derived from the replication stream by the stable hash of
	// the role's name. Two model variants sharing activity names then
	// consume identical randomness for identical roles regardless of how
	// their event interleavings differ — the substrate for paired policy
	// comparison. Results stay deterministic for a fixed seed but are not
	// bit-compatible with non-CRN runs of the same seed.
	CRN bool
	// KeepPerRep retains one summary value per replication and variable
	// (the mean of the replication's observations; NaN if it failed, was
	// skipped, or emitted none) in Results.PerRep — the substrate for
	// paired comparison and sequential stopping — and lets Results.Merge
	// fold contiguous batches together.
	KeepPerRep bool
	// FirstRep is the absolute index of the first replication of this
	// batch (default 0). Replication j of the batch uses the stream
	// derived from absolute index FirstRep+j, so running [0,n) in one call
	// or in several contiguous batches merged with Results.Merge yields
	// identical per-replication trajectories.
	FirstRep int
	// Invariants are runtime monitors checked against the marking during
	// every replication (initial stable marking, every InvariantEvery
	// firings, and the final marking). A violation aborts the replication
	// with a FailureInvariant ReplicationError — counted, bounded by
	// MaxFailureFrac, and reproducible via Replay like any other failure.
	// Invariant checks never consume randomness, so enabling them does not
	// perturb trajectories.
	Invariants []Invariant
	// InvariantEvery is the check cadence in firings (0 selects
	// DefaultInvariantEvery).
	InvariantEvery int64
}

// validate checks the spec's static requirements, shared by RunContext and
// RunFlat.
func (s *Spec) validate() error {
	if s.Model == nil || !s.Model.Finalized() {
		return errors.New("sim: Spec.Model must be a finalized model")
	}
	if s.Reps < 1 {
		return fmt.Errorf("sim: Reps must be >= 1, got %d", s.Reps)
	}
	if math.IsNaN(s.Until) || math.IsInf(s.Until, 0) || s.Until <= 0 {
		return fmt.Errorf("sim: Until must be finite and > 0, got %v", s.Until)
	}
	if s.FirstRep < 0 {
		return fmt.Errorf("sim: FirstRep must be >= 0, got %d", s.FirstRep)
	}
	return nil
}

// Estimate is the aggregated result for one reward variable.
type Estimate struct {
	Name string
	// Mean is the point estimate across all emitted observations.
	Mean float64
	// HalfWidth95 is the 95% confidence half-width.
	HalfWidth95 float64
	// N is the number of observations (replications that emitted a value).
	N int64
	// Min and Max are the extreme observations.
	Min, Max float64
}

func (e Estimate) String() string {
	return fmt.Sprintf("%s = %.6g ± %.2g (n=%d)", e.Name, e.Mean, e.HalfWidth95, e.N)
}

// Results holds the study outcome.
//
// Estimates aggregate the completed replications only. When Failed > 0 the
// survivors are not a random subsample: failures can correlate with extreme
// trajectories (for example, the most congested runs are the ones that trip
// a firing budget), so the estimates carry a selection bias whose size
// grows with the failure fraction. Keep the fraction small (see
// Spec.MaxFailureFrac) and investigate every entry of Failures — each one
// reproduces deterministically via Replay.
type Results struct {
	// Estimates, in the order of Spec.Vars, aggregated over the Completed
	// replications.
	Estimates []Estimate
	// TotalFirings across all completed replications.
	TotalFirings int64
	// Reps is the number of replications requested (Spec.Reps). Compare
	// Completed, Failed, and Skipped for what actually ran.
	Reps int
	// Completed replications finished and contributed observations.
	Completed int
	// Failed replications were attempted but aborted (panic, deadline,
	// firing budget, or model error); details in Failures.
	Failed int
	// Skipped replications were never attempted, or were cut short, because
	// the context was cancelled. Reps == Completed + Failed + Skipped.
	Skipped int
	// Failures records every failed replication, ordered by Rep. Each entry
	// names the replication index and root seed that reproduce it.
	Failures []ReplicationError
	// PerRep, present when Spec.KeepPerRep was set, holds one summary
	// value per variable (outer index, order of Spec.Vars) and replication
	// of this batch (inner index; absolute index FirstRep + j): the mean of
	// that replication's observations, or NaN if the replication failed,
	// was skipped, or emitted none.
	PerRep [][]float64
	// FirstRep is the absolute index of the first replication of this
	// batch (Spec.FirstRep).
	FirstRep int
	byName   map[string]*Estimate
	// accums carries the per-variable aggregation state when PerRep is
	// kept, enabling exact Merge of contiguous batches.
	accums []*stats.Accumulator
}

// Merge folds another batch of the same study into r: counts, failures,
// firings, per-replication values, and the estimate accumulators combine
// exactly. Both results must retain per-replication state (Spec.KeepPerRep)
// and s must be the batch immediately following r (s.FirstRep == r.FirstRep
// + r.Reps), so the merged PerRep stays a dense contiguous range.
func (r *Results) Merge(s *Results) error {
	if r.accums == nil || s.accums == nil {
		return errors.New("sim: Merge requires results run with KeepPerRep")
	}
	if len(r.Estimates) != len(s.Estimates) {
		return fmt.Errorf("sim: merging %d variables into %d", len(s.Estimates), len(r.Estimates))
	}
	for i := range r.Estimates {
		if r.Estimates[i].Name != s.Estimates[i].Name {
			return fmt.Errorf("sim: merging variable %q into %q", s.Estimates[i].Name, r.Estimates[i].Name)
		}
	}
	if s.FirstRep != r.FirstRep+r.Reps {
		return fmt.Errorf("sim: merging batch starting at rep %d onto batch ending at %d",
			s.FirstRep, r.FirstRep+r.Reps)
	}
	for i := range r.accums {
		r.accums[i].Merge(s.accums[i])
		r.PerRep[i] = append(r.PerRep[i], s.PerRep[i]...)
	}
	r.TotalFirings += s.TotalFirings
	r.Reps += s.Reps
	r.Completed += s.Completed
	r.Failed += s.Failed
	r.Skipped += s.Skipped
	r.Failures = append(r.Failures, s.Failures...)
	names := make([]string, len(r.Estimates))
	for i := range r.Estimates {
		names[i] = r.Estimates[i].Name
	}
	r.setEstimates(names, r.accums)
	return nil
}

// Attempted returns the number of replications actually attempted
// (completed or failed) — the denominator honest accounting should use.
func (r *Results) Attempted() int { return r.Completed + r.Failed }

// Get returns the estimate for the named variable.
func (r *Results) Get(name string) (Estimate, bool) {
	e, ok := r.byName[name]
	if !ok {
		return Estimate{}, false
	}
	return *e, true
}

// MustGet returns the named estimate or panics, for harness code whose
// variable set is static.
func (r *Results) MustGet(name string) Estimate {
	e, ok := r.Get(name)
	if !ok {
		panic(fmt.Sprintf("sim: no estimate named %q", name))
	}
	return e
}

// Run executes the study: Spec.Reps replications of Spec.Model, shared
// among workers, aggregating every reward variable. Replication i always
// uses stream Derive(Seed)(i) regardless of the worker that runs it.
func Run(spec Spec) (*Results, error) {
	return RunContext(context.Background(), spec)
}

// runReplication executes one replication on eng, isolating panics from
// model callbacks and observers. Observations are harvested into fresh
// slices and committed by the caller only on success, so a failed
// replication contributes nothing. The returned ReplicationError is nil on
// success; cancellation of ctx surfaces as a FailureModel error wrapping
// context.Canceled, which the caller accounts as skipped work.
func runReplication(ctx context.Context, eng *Engine, spec *Spec, stream *rng.Stream, rep int) (vals [][]float64, firings int64, ferr *ReplicationError) {
	defer func() {
		if r := recover(); r != nil {
			vals, firings = nil, 0
			ferr = &ReplicationError{
				Rep: rep, Seed: spec.Seed, Kind: FailurePanic,
				PanicValue: r, Stack: string(debug.Stack()),
			}
		}
	}()
	repCtx := ctx
	if spec.RepDeadline > 0 {
		var cancel context.CancelFunc
		repCtx, cancel = context.WithTimeout(ctx, spec.RepDeadline)
		defer cancel()
	}
	obs := make([]reward.Observer, len(spec.Vars))
	for i, v := range spec.Vars {
		obs[i] = v.NewObserver()
	}
	if err := eng.RunOnceCtx(repCtx, spec.Until, stream, obs, spec.MaxFirings); err != nil {
		return nil, 0, classifyFailure(spec.Seed, rep, err)
	}
	vals = make([][]float64, len(spec.Vars))
	for i := range obs {
		obs[i].Results(func(x float64) { vals[i] = append(vals[i], x) })
	}
	return vals, eng.Firings(), nil
}

// RunContext is Run with fault-tolerant execution semantics:
//
//   - Cancelling ctx stops the study gracefully: everything that already
//     completed is merged and returned alongside ctx.Err(), with the
//     never-attempted replications counted in Results.Skipped.
//   - A replication that panics, trips the Spec.RepDeadline watchdog,
//     exhausts its firing budget, or returns a model error is recorded as a
//     ReplicationError (with its reproducing seed) and the study continues.
//   - If the failed fraction exceeds Spec.MaxFailureFrac, the partial
//     results are returned together with an aggregate error.
//
// It is RunFlat over the one spec with Spec.Workers workers, so its results
// are bit-identical at every worker count. The returned *Results is non-nil
// whenever the spec itself is valid, even when err != nil, so callers can
// always salvage completed work.
func RunContext(ctx context.Context, spec Spec) (*Results, error) {
	fr := RunFlat(ctx, []Spec{spec}, spec.Workers)[0]
	return fr.Results, fr.Err
}

// setEstimates rebuilds r.Estimates and the name index from one accumulator
// per variable (parallel to names).
func (r *Results) setEstimates(names []string, accums []*stats.Accumulator) {
	r.Estimates = make([]Estimate, len(names))
	r.byName = make(map[string]*Estimate, len(names))
	for i, a := range accums {
		r.Estimates[i] = Summarize(names[i], a)
		r.byName[names[i]] = &r.Estimates[i]
	}
}

// Summarize is the estimate of the observations a holds: zero statistics
// without observations, and a zero half-width below two.
func Summarize(name string, a *stats.Accumulator) Estimate {
	e := Estimate{Name: name, N: a.N()}
	if a.N() > 0 {
		e.Mean, e.Min, e.Max = a.Mean(), a.Min(), a.Max()
	}
	if a.N() >= 2 {
		e.HalfWidth95 = a.HalfWidth(0.95)
	}
	return e
}

// finishErr is the error a finished study reports alongside its (always
// non-nil) partial results: context cancellation first, then the
// failure-tolerance breach.
func finishErr(ctx context.Context, spec *Spec, out *Results) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if out.Failed > 0 {
		maxFrac := spec.MaxFailureFrac
		if maxFrac == 0 {
			maxFrac = DefaultMaxFailureFrac
		} else if maxFrac < 0 {
			maxFrac = 0
		}
		if frac := float64(out.Failed) / float64(spec.Reps); frac > maxFrac {
			return out.toleranceError(spec, maxFrac)
		}
	}
	return nil
}

// toleranceError formats the aggregate failure-tolerance error.
func (r *Results) toleranceError(spec *Spec, maxFrac float64) error {
	frac := float64(r.Failed) / float64(spec.Reps)
	return fmt.Errorf("sim: %d of %d replications failed (%.1f%% > %.1f%% tolerated), first: %w",
		r.Failed, spec.Reps, 100*frac, 100*maxFrac, &r.Failures[0])
}

// Sorted returns estimate names in sorted order (stable table output).
func (r *Results) Sorted() []string {
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
