package san

import (
	"errors"
	"fmt"
	"math"
)

// Kind distinguishes timed activities (which complete after a random delay)
// from instantaneous activities (which complete in zero time as soon as they
// are enabled).
type Kind int

const (
	// Timed activities complete after an exponentially distributed delay
	// at their rate.
	Timed Kind = iota + 1
	// Instant activities fire immediately upon becoming enabled, before any
	// timed activity can complete.
	Instant
)

// Case is one probabilistic outcome of an activity's completion, the SAN
// equivalent of a case arc feeding an output gate. Effect runs the output
// gate: it may read and write the state and (in simulation) use ctx.Rand.
type Case struct {
	// Name is optional, for diagnostics and DOT export.
	Name string
	// Prob is the static probability weight of this case (need not be
	// normalized).
	Prob float64
	// Effect applies the case's output gate. nil means "no state change".
	Effect func(ctx *Context)
}

// ActivityDef is the user-facing definition of an activity; Model.AddActivity
// converts it into an internal Activity.
type ActivityDef struct {
	// Name must be unique within the model.
	Name string
	// Kind is Timed or Instant.
	Kind Kind
	// Rate gives the rate of the exponential firing-time distribution,
	// possibly depending on the marking. Required for Timed activities;
	// ignored for Instant ones. While the activity is enabled the rate must
	// be finite and positive (see CheckRate).
	Rate func(s *State) float64
	// Enabled is the conjunction of the activity's input-gate predicates.
	// Required: an activity with no predicate would never stop firing.
	Enabled func(s *State) bool
	// Reads lists every place that Enabled or Rate may read.
	// The engine re-evaluates the activity only when one of these places
	// changes; an omitted dependency is a modeling bug that the engine's
	// validation mode detects by read tracing.
	Reads []*Place
	// Cases are the activity's probabilistic outcomes. At least one is
	// required; a single case with Prob 1 models a deterministic outcome.
	Cases []Case
	// Priority orders instantaneous activities: all enabled activities of
	// the highest priority fire before lower ones, and those of equal
	// priority race with equal weight ("all of the copies are equally
	// likely to fire first"). Ignored for Timed.
	Priority int
}

// Activity is a finalized activity. Fields are read-only after
// Model.Finalize.
type Activity struct {
	def   ActivityDef
	id    int
	model *Model
	// caseW holds the case weights (the Prob fields), built once by
	// Finalize so the per-firing case choice allocates nothing. Never
	// mutated afterwards.
	caseW []float64
}

// Name returns the activity name.
func (a *Activity) Name() string { return a.def.Name }

// ID returns the activity's dense index within its model.
func (a *Activity) ID() int { return a.id }

// Kind returns Timed or Instant.
func (a *Activity) Kind() Kind { return a.def.Kind }

// Priority returns the instantaneous priority.
func (a *Activity) Priority() int { return a.def.Priority }

// Enabled reports whether the activity is enabled in s.
func (a *Activity) Enabled(s *State) bool { return a.def.Enabled(s) }

// Rate returns the current rate of the firing-time distribution.
func (a *Activity) Rate(s *State) float64 { return a.def.Rate(s) }

// ErrRate is wrapped by the error either solver returns when an enabled
// timed activity's rate is not finite and positive.
var ErrRate = errors.New("san: timed activity rate is not finite and positive")

// CheckRate returns nil if rate is a usable rate for a, and otherwise an
// error wrapping ErrRate that names a.
func CheckRate(a *Activity, rate float64) error {
	if rate > 0 && !math.IsInf(rate, 1) {
		return nil
	}
	return fmt.Errorf("%w: activity %q has rate %v", ErrRate, a.def.Name, rate)
}

// Cases returns the case list.
func (a *Activity) Cases() []Case { return a.def.Cases }

// CaseWeights returns the static case weights, the Prob values in case
// order. The slice is shared across calls; callers must not modify it.
func (a *Activity) CaseWeights() []float64 { return a.caseW }

// ChooseCase samples a case index according to the case weights.
func (a *Activity) ChooseCase(ctx *Context) int {
	if len(a.def.Cases) == 1 {
		return 0
	}
	return ctx.Rand.Category(a.caseW)
}

// Fire completes the activity in ctx with the chosen case: it applies the
// case's output-gate effect.
func (a *Activity) Fire(ctx *Context, caseIdx int) {
	if eff := a.def.Cases[caseIdx].Effect; eff != nil {
		eff(ctx)
	}
}

// Reads returns the declared dependency list.
func (a *Activity) Reads() []*Place { return a.def.Reads }
