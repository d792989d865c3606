// Package reward defines reward variables on SAN models — the measures of
// the Möbius reward-model layer. A Var describes a measure; for each
// simulation replication the engine instantiates an Observer that watches
// the trajectory and yields zero or more observations, which the runner
// aggregates into confidence intervals across replications.
//
// The paper's measures map directly: "unavailability for an interval" is a
// TimeAverage of an improper-service indicator, "unreliability for an
// interval" is an AtTime reading of a latching failure place (equivalently
// a FirstPassage), "number of replicas running at an instant" is an AtTime,
// and "fraction of corrupt hosts in a domain when it is excluded" is an
// impulse measure on exclusion firings.
package reward

import (
	"ituaval/internal/san"
)

// Var is a reward variable: a named measure evaluated once per replication.
type Var interface {
	// Name identifies the variable in results tables.
	Name() string
	// NewObserver creates a fresh per-replication observer.
	NewObserver() Observer
}

// Observer receives the trajectory callbacks for one replication. The
// engine guarantees: Init once at time 0 (after the model's initialization
// hook and initial stabilization); Advance for every maximal interval
// [t0, t1) during which the marking is constant; Fired after every activity
// completion (timed and instantaneous, so vanishing markings are visible)
// with the post-firing state; Done exactly once at the end time.
type Observer interface {
	Init(s *san.State, t float64)
	Advance(s *san.State, t0, t1 float64)
	Fired(s *san.State, a *san.Activity, caseIdx int, t float64)
	Done(s *san.State, t float64)
	// Results emits this replication's observations (possibly none).
	Results(emit func(float64))
}

// baseObserver provides no-op callbacks for observers that only need some.
type baseObserver struct{}

func (baseObserver) Init(*san.State, float64)                      {}
func (baseObserver) Advance(*san.State, float64, float64)          {}
func (baseObserver) Fired(*san.State, *san.Activity, int, float64) {}
func (baseObserver) Done(*san.State, float64)                      {}

// TimeAverage is an interval-of-time rate reward averaged over [From, To]:
// (1/(To-From)) ∫ F(state(t)) dt. With F an indicator of improper service
// this is exactly the paper's "unavailability for an interval".
type TimeAverage struct {
	VarName  string
	F        func(s *san.State) float64
	From, To float64
}

func (v *TimeAverage) Name() string { return v.VarName }

func (v *TimeAverage) NewObserver() Observer {
	return &timeAverageObs{v: v}
}

type timeAverageObs struct {
	baseObserver
	v        *TimeAverage
	integral float64
}

func (o *timeAverageObs) Advance(s *san.State, t0, t1 float64) {
	lo, hi := t0, t1
	if lo < o.v.From {
		lo = o.v.From
	}
	if hi > o.v.To {
		hi = o.v.To
	}
	if hi > lo {
		o.integral += o.v.F(s) * (hi - lo)
	}
}

func (o *timeAverageObs) Results(emit func(float64)) {
	width := o.v.To - o.v.From
	if width <= 0 {
		return
	}
	emit(o.integral / width)
}

// AtTime is an instant-of-time reward: the value of F in the state holding
// at time T. If T coincides with the end of the run the final state is used.
type AtTime struct {
	VarName string
	F       func(s *san.State) float64
	T       float64
}

func (v *AtTime) Name() string { return v.VarName }

func (v *AtTime) NewObserver() Observer { return &atTimeObs{v: v} }

type atTimeObs struct {
	baseObserver
	v        *AtTime
	recorded bool
	value    float64
}

func (o *atTimeObs) Init(s *san.State, t float64) {
	if t >= o.v.T && !o.recorded {
		o.value, o.recorded = o.v.F(s), true
	}
}

func (o *atTimeObs) Advance(s *san.State, t0, t1 float64) {
	if !o.recorded && t0 <= o.v.T && o.v.T < t1 {
		o.value, o.recorded = o.v.F(s), true
	}
}

func (o *atTimeObs) Done(s *san.State, t float64) {
	if !o.recorded && t >= o.v.T {
		o.value, o.recorded = o.v.F(s), true
	}
}

func (o *atTimeObs) Results(emit func(float64)) {
	if o.recorded {
		emit(o.value)
	}
}

// FirstPassage emits 1 if Pred was true in any state (including vanishing
// markings reached during instantaneous stabilization) at or before By,
// else 0. With Pred the improper-service condition this is the paper's
// "unreliability for an interval".
type FirstPassage struct {
	VarName string
	Pred    func(s *san.State) bool
	By      float64
}

func (v *FirstPassage) Name() string { return v.VarName }

func (v *FirstPassage) NewObserver() Observer { return &firstPassageObs{v: v} }

type firstPassageObs struct {
	baseObserver
	v       *FirstPassage
	latched bool
}

func (o *firstPassageObs) check(s *san.State, t float64) {
	if !o.latched && t <= o.v.By && o.v.Pred(s) {
		o.latched = true
	}
}

func (o *firstPassageObs) Init(s *san.State, t float64) { o.check(s, t) }
func (o *firstPassageObs) Advance(s *san.State, t0, _ float64) {
	o.check(s, t0)
}
func (o *firstPassageObs) Fired(s *san.State, _ *san.Activity, _ int, t float64) {
	o.check(s, t)
}
func (o *firstPassageObs) Done(s *san.State, t float64) { o.check(s, t) }

func (o *firstPassageObs) Results(emit func(float64)) {
	if o.latched {
		emit(1)
	} else {
		emit(0)
	}
}

// ImpulseMean observes V(state) at each firing of an activity matched by
// Match within [From, To] and emits the per-replication mean of those
// observations (nothing if no matching firing occurred). The paper's
// "fraction of corrupt hosts in a domain when it is excluded" is an
// ImpulseMean on the domain-exclusion firings.
type ImpulseMean struct {
	VarName  string
	Match    func(a *san.Activity, caseIdx int) bool
	V        func(s *san.State, a *san.Activity) float64
	From, To float64
}

func (v *ImpulseMean) Name() string { return v.VarName }

func (v *ImpulseMean) NewObserver() Observer { return &impulseMeanObs{v: v} }

type impulseMeanObs struct {
	baseObserver
	v     *ImpulseMean
	sum   float64
	count int
}

func (o *impulseMeanObs) Fired(s *san.State, a *san.Activity, caseIdx int, t float64) {
	if t < o.v.From || t > o.v.To {
		return
	}
	if o.v.Match(a, caseIdx) {
		o.sum += o.v.V(s, a)
		o.count++
	}
}

func (o *impulseMeanObs) Results(emit func(float64)) {
	if o.count > 0 {
		emit(o.sum / float64(o.count))
	}
}

// Count emits the number of firings matched by Match in [From, To].
type Count struct {
	VarName  string
	Match    func(a *san.Activity, caseIdx int) bool
	From, To float64
}

func (v *Count) Name() string { return v.VarName }

func (v *Count) NewObserver() Observer { return &countObs{v: v} }

type countObs struct {
	baseObserver
	v *Count
	n int
}

func (o *countObs) Fired(_ *san.State, a *san.Activity, caseIdx int, t float64) {
	if t >= o.v.From && t <= o.v.To && o.v.Match(a, caseIdx) {
		o.n++
	}
}

func (o *countObs) Results(emit func(float64)) { emit(float64(o.n)) }

// Func adapts an arbitrary observer constructor into a Var, for custom
// measures defined by model code.
type Func struct {
	VarName string
	New     func() Observer
}

func (v *Func) Name() string          { return v.VarName }
func (v *Func) NewObserver() Observer { return v.New() }

// FirstPassageTime emits the time at which Pred first became true (nothing
// if it never did within the horizon). Combined with FirstPassage it gives
// the conditional mean time to failure.
type FirstPassageTime struct {
	VarName string
	Pred    func(s *san.State) bool
}

func (v *FirstPassageTime) Name() string { return v.VarName }

func (v *FirstPassageTime) NewObserver() Observer { return &firstPassageTimeObs{v: v} }

type firstPassageTimeObs struct {
	baseObserver
	v       *FirstPassageTime
	latched bool
	when    float64
}

func (o *firstPassageTimeObs) check(s *san.State, t float64) {
	if !o.latched && o.v.Pred(s) {
		o.latched, o.when = true, t
	}
}

func (o *firstPassageTimeObs) Init(s *san.State, t float64)        { o.check(s, t) }
func (o *firstPassageTimeObs) Advance(s *san.State, t0, _ float64) { o.check(s, t0) }
func (o *firstPassageTimeObs) Fired(s *san.State, _ *san.Activity, _ int, t float64) {
	o.check(s, t)
}
func (o *firstPassageTimeObs) Done(s *san.State, t float64) { o.check(s, t) }

func (o *firstPassageTimeObs) Results(emit func(float64)) {
	if o.latched {
		emit(o.when)
	}
}
