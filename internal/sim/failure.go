package sim

import (
	"context"
	"errors"
	"fmt"

	"ituaval/internal/rng"
	"ituaval/internal/san"
)

// FailureKind classifies why a replication failed. A failed replication
// contributes nothing to the estimates; its failure record carries enough
// information (root seed + replication index) to reproduce the run exactly
// with Replay.
type FailureKind int

const (
	// FailureModel: the model or engine returned an error (for example an
	// unstable instantaneous loop rejected by san.Stabilize).
	FailureModel FailureKind = iota
	// FailurePanic: a model callback (gate function, rate,
	// predicate, observer) panicked; the panic was isolated to the
	// replication and the study continued.
	FailurePanic
	// FailureDeadline: the replication exceeded Spec.RepDeadline of
	// wall-clock time (watchdog).
	FailureDeadline
	// FailureBudget: the replication exceeded its firing budget
	// (Spec.MaxFirings).
	FailureBudget
	// FailureInvariant: a runtime invariant monitor (Spec.Invariants)
	// observed a marking outside the model's legal state space.
	FailureInvariant
	// FailureLivelock: an instantaneous-activity cycle never reached a
	// stable marking (engine livelock detector, or san.Stabilize's bound
	// during initialization).
	FailureLivelock
)

func (k FailureKind) String() string {
	switch k {
	case FailureModel:
		return "model-error"
	case FailurePanic:
		return "panic"
	case FailureDeadline:
		return "deadline"
	case FailureBudget:
		return "firing-budget"
	case FailureInvariant:
		return "invariant"
	case FailureLivelock:
		return "livelock"
	default:
		return fmt.Sprintf("FailureKind(%d)", int(k))
	}
}

// ExitCode maps a failure class to a distinct process exit code, so shell
// wrappers around `ituaval -replay` (and other CLIs surfacing replication
// failures) can branch on the class without parsing stderr. Codes start at
// 10 to stay clear of the conventional 1 (generic error) and 2 (usage).
func (k FailureKind) ExitCode() int {
	switch k {
	case FailureModel:
		return 10
	case FailurePanic:
		return 11
	case FailureDeadline:
		return 12
	case FailureBudget:
		return 13
	case FailureInvariant:
		return 14
	case FailureLivelock:
		return 15
	default:
		return 1
	}
}

// ReplicationError records one failed replication. The failing run is
// reproducible: replication Rep of a study with root seed Seed always uses
// the random stream rng.New(Seed).Derive(Rep), regardless of worker
// scheduling, so Replay(spec, Rep) re-executes the identical trajectory.
type ReplicationError struct {
	// Rep is the replication index within the study.
	Rep int
	// Seed is the study's root seed (Spec.Seed). The replication's stream
	// is rng.New(Seed).Derive(uint64(Rep)).
	Seed uint64
	// Kind classifies the failure.
	Kind FailureKind
	// Err is the underlying error for model/deadline/budget failures (nil
	// for panics).
	Err error `json:"-"`
	// PanicValue and Stack capture an isolated panic (Kind == FailurePanic).
	PanicValue any
	Stack      string
}

func (e *ReplicationError) Error() string {
	switch e.Kind {
	case FailurePanic:
		return fmt.Sprintf("replication %d (seed %d): panic: %v", e.Rep, e.Seed, e.PanicValue)
	default:
		return fmt.Sprintf("replication %d (seed %d): %v", e.Rep, e.Seed, e.Err)
	}
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ReplicationError) Unwrap() error { return e.Err }

// BudgetError reports a replication that exhausted its firing budget; the
// runner degrades it to a FailureBudget ReplicationError instead of
// aborting the whole study.
type BudgetError struct {
	Limit int64   // the firing budget in force
	At    float64 // simulation time when it was exceeded
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: exceeded %d firings at t=%v (unstable model?)", e.Limit, e.At)
}

// classifyFailure wraps an engine error as a ReplicationError with the
// right kind. Context cancellation is not a failure and is handled by the
// caller before classification.
func classifyFailure(seed uint64, rep int, err error) *ReplicationError {
	kind := FailureModel
	var (
		be *BudgetError
		ie *InvariantError
		le *LivelockError
	)
	switch {
	case errors.As(err, &be):
		kind = FailureBudget
	case errors.As(err, &ie):
		kind = FailureInvariant
	case errors.As(err, &le), errors.Is(err, san.ErrUnstable):
		kind = FailureLivelock
	case errors.Is(err, context.DeadlineExceeded):
		kind = FailureDeadline
	}
	return &ReplicationError{Rep: rep, Seed: seed, Kind: kind, Err: err}
}

// Replay re-executes a single replication of the study described by spec,
// serially in the calling goroutine, and returns the failure it reproduces
// (nil if the replication completes cleanly). Use it to debug a failure
// recorded in Results.Failures: the absolute replication index, the root
// seed, and the spec's CRN mode fully determine the trajectory.
func Replay(spec Spec, rep int) *ReplicationError {
	if spec.Model == nil || !spec.Model.Finalized() {
		return &ReplicationError{Rep: rep, Seed: spec.Seed, Kind: FailureModel,
			Err: errors.New("sim: Spec.Model must be a finalized model")}
	}
	_, _, ferr := runReplication(context.Background(), newSpecEngine(&spec), &spec, rng.New(spec.Seed).Derive(uint64(rep)), rep)
	return ferr
}
