// Package sim is the discrete-event simulation engine for SAN models: the
// equivalent of the Möbius simulator the paper used ("because of the
// complexity of the model and the use of non-exponentially distributed
// firing times ... we instead used Möbius to simulate the model"). Here every
// timed activity is exponential at a marking-dependent rate, so the same
// models also generate exact chains (internal/mc).
//
// The engine executes replicated terminating simulations: each replication
// runs the model from its initial marking to a fixed end time, reward
// observers watch the trajectory, and the runner aggregates observations
// across replications (optionally in parallel) into confidence intervals.
package sim

import (
	"context"
	"fmt"
	"slices"

	"ituaval/internal/reward"
	"ituaval/internal/rng"
	"ituaval/internal/san"
)

// event is a scheduled completion of a timed activity. gen guards against
// stale events: cancelling an activity bumps its generation, leaving the
// heap entry to be discarded lazily when popped.
type event struct {
	time float64
	act  *san.Activity
	gen  uint64
}

// eventHeap is a typed binary min-heap over event values. It reimplements
// the sift-up/sift-down of container/heap (same traversal, same strict <
// comparison), so the pop order of any equal-time events is the one the
// engine has always produced, without the two interface{} boxings per
// event that container/heap charges.
type eventHeap []event

// push inserts ev, restoring the heap property. Amortized zero allocations
// once the backing array has grown to the model's concurrency level.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(s[j].time < s[i].time) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the minimum element.
func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	// Sift the displaced element down over the first n entries.
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s[j2].time < s[j1].time {
			j = j2
		}
		if !(s[j].time < s[i].time) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	ev := s[n]
	*h = s[:n]
	return ev
}

// schedEntry tracks the scheduling status of one timed activity.
type schedEntry struct {
	scheduled bool
	gen       uint64
	rate      float64 // rate in force when the event was sampled
}

// Engine runs one replication at a time over a finalized model. An Engine
// is not safe for concurrent use; the parallel runner creates one per
// worker.
type Engine struct {
	model    *san.Model
	state    *san.State
	baseline *san.State // immutable initial marking, copied into state per replication
	sched    []schedEntry
	heap     eventHeap
	now      float64
	rand     *rng.Stream
	validate bool

	// rateMemo caches, per activity ID, the rate of timed activities whose
	// Rate closure is provably marking-independent (see probeConstRate);
	// zero entries fall back to the closure. Unused in validate mode,
	// which must keep read-tracing every evaluation.
	rateMemo []float64

	// ctx is the reusable firing context handed to gate functions; rebound
	// per replication instead of allocated.
	ctx san.Context

	// scratch buffer for the instantaneous-race resolution, reused across
	// firings so steady state allocates nothing.
	instBuf []*san.Activity
	// instCand holds, in creation order, the instantaneous activities that
	// read a place in the state's dirty list up to candSeen.
	instCand []*san.Activity
	candSeen int

	// Common-random-numbers mode (UseCRN): instead of drawing every variate
	// from the single replication stream in event-execution order, each
	// stochastic role — an activity's firing delays, case choices, and
	// effect draws; the initialization hook; the instantaneous race — gets
	// its own substream derived from the replication stream by the stable
	// hash of the activity's name. Two model variants that share activity
	// names then consume identical randomness for identical roles however
	// their event interleavings differ, which is what makes paired
	// (CRN-synchronized) policy comparisons sharp.
	crn         bool
	roleKeys    []uint64      // per activity ID: rng.RoleKey(activity name)
	roleStreams []*rng.Stream // per activity ID, lazily derived per replication
	repRoot     *rng.Stream   // the replication stream roles derive from
	initStream  *rng.Stream   // role for the init hook + initial stabilization
	raceStream  *rng.Stream   // role for instantaneous-activity races

	// candidate deduplication within one refresh round or one zero-delay
	// chain
	stamp    []uint64
	curStamp uint64

	// runtime invariant monitors (SetInvariants)
	invariants []Invariant
	invEvery   int64

	firings int64
}

// NewEngine creates an engine for the finalized model. If validate is true,
// every predicate and rate evaluation is read-traced, so an undeclared
// dependency panics, and every incremental instantaneous scan is checked
// against a full one — slow, meant for model tests.
func NewEngine(model *san.Model, validate bool) *Engine {
	if !model.Finalized() {
		panic("sim: model not finalized")
	}
	e := &Engine{
		model:    model,
		state:    model.NewState(),
		baseline: model.NewState(),
		sched:    make([]schedEntry, len(model.Activities())),
		stamp:    make([]uint64, len(model.Activities())),
		validate: validate,
	}
	if !validate {
		e.rateMemo = make([]float64, len(model.Activities()))
		probe := model.NewState()
		for _, a := range model.Activities() {
			if a.Kind() == san.Timed {
				e.rateMemo[a.ID()] = probeConstRate(probe, a)
			}
		}
	}
	return e
}

// probeConstRate returns a's rate if the Rate closure is provably
// marking-independent, 0 otherwise. The proof is by read tracing on the
// initial marking: two evaluations that read no place (directly or via the
// raw Markings vector) and return the identical rate cannot depend on the
// state, so the engine may reuse that value instead of re-invoking the
// closure. Closures returning a different value per call (or NaN) fail the
// identity check and stay unmemoized, which also preserves their
// (resampling) behavior on every marking change that refreshes them.
func probeConstRate(s *san.State, a *san.Activity) (r float64) {
	defer func() {
		// A panicking closure (state-dependent guard) simply stays
		// unmemoized.
		if recover() != nil {
			r = 0
		}
	}()
	var rs [2]float64
	for i := range rs {
		s.StartTrace()
		rs[i] = a.Rate(s)
		if reads := s.StopTrace(); len(reads) > 0 || s.ReadAllTraced() {
			return 0
		}
	}
	if rs[0] != rs[1] {
		return 0
	}
	return rs[0]
}

// UseCRN switches the engine between single-stream sampling (the default,
// bit-compatible with all prior results) and role-indexed substreams for
// common random numbers. Call it before RunOnce; the mode is sticky.
func (e *Engine) UseCRN(on bool) {
	e.crn = on
	if !on || e.roleKeys != nil {
		return
	}
	acts := e.model.Activities()
	e.roleKeys = make([]uint64, len(acts))
	for _, a := range acts {
		e.roleKeys[a.ID()] = rng.RoleKey(a.Name())
	}
	e.roleStreams = make([]*rng.Stream, len(acts))
}

// randFor returns the stream an activity's variates come from: the shared
// replication stream normally, or the activity's role substream under CRN
// (derived on first use each replication, so the cost of unused roles is
// zero and the consumption order within a role is trajectory-independent).
func (e *Engine) randFor(a *san.Activity) *rng.Stream {
	if !e.crn {
		return e.rand
	}
	st := e.roleStreams[a.ID()]
	if st == nil {
		st = e.repRoot.Role(e.roleKeys[a.ID()])
		e.roleStreams[a.ID()] = st
	}
	return st
}

// Firings returns the number of activity completions in the last run.
func (e *Engine) Firings() int64 { return e.firings }

// enabled evaluates the activity's predicate, read-tracing in validate mode.
func (e *Engine) enabled(a *san.Activity) bool {
	if !e.validate {
		return a.Enabled(e.state)
	}
	e.state.StartTrace()
	result := a.Enabled(e.state)
	e.checkTrace(a, "Enabled")
	return result
}

// rate evaluates the activity's rate, read-tracing in validate mode.
// Marking-independent rates come from the per-engine memo instead of
// re-invoking the closure.
func (e *Engine) rate(a *san.Activity) float64 {
	if !e.validate {
		if r := e.rateMemo[a.ID()]; r != 0 {
			return r
		}
		return a.Rate(e.state)
	}
	e.state.StartTrace()
	r := a.Rate(e.state)
	e.checkTrace(a, "Rate")
	return r
}

func (e *Engine) checkTrace(a *san.Activity, what string) {
	declared := func(idx int) bool {
		return slices.ContainsFunc(a.Reads(), func(p *san.Place) bool { return p.Index() == idx })
	}
	for idx := range e.state.StopTrace() {
		if !declared(idx) {
			panic(fmt.Sprintf("sim: activity %q %s read undeclared place %q",
				a.Name(), what, e.model.Places()[idx].Name()))
		}
	}
	// Through Markings the closure may read any place, so a timed activity
	// that calls it must declare them all, or a write to one it left out
	// never refreshes it. (An instantaneous predicate is checked by
	// checkInstantScan's full scan.)
	if !e.state.ReadAllTraced() || a.Kind() != san.Timed {
		return
	}
	for _, p := range e.model.Places() {
		if !declared(p.Index()) {
			panic(fmt.Sprintf("sim: activity %q %s read the whole marking but does not declare place %q",
				a.Name(), what, p.Name()))
		}
	}
}

// sample schedules a fresh completion for a (assumed enabled) at the given
// rate, which must pass san.CheckRate.
func (e *Engine) sample(a *san.Activity, rate float64) error {
	if err := san.CheckRate(a, rate); err != nil {
		return fmt.Errorf("sim: at t=%v: %w", e.now, err)
	}
	ent := &e.sched[a.ID()]
	ent.gen++
	ent.scheduled = true
	ent.rate = rate
	e.heap.push(event{time: e.now + e.randFor(a).Expo(rate), act: a, gen: ent.gen})
	return nil
}

// cancel invalidates a's scheduled event, if any.
func (e *Engine) cancel(a *san.Activity) {
	ent := &e.sched[a.ID()]
	if ent.scheduled {
		ent.scheduled = false
		ent.gen++
	}
}

// refresh re-evaluates scheduling for a after a marking change. A scheduled
// completion is resampled only when its marking-dependent rate changed,
// which memorylessness makes exact.
func (e *Engine) refresh(a *san.Activity) error {
	if a.Kind() != san.Timed {
		return nil
	}
	ent := &e.sched[a.ID()]
	if !e.enabled(a) {
		e.cancel(a)
		return nil
	}
	if !ent.scheduled {
		return e.sample(a, e.rate(a))
	}
	if r := e.rate(a); r != ent.rate {
		return e.sample(a, r) // the new generation makes the old event stale
	}
	return nil
}

// processDirty refreshes every activity that depends on a dirtied place,
// plus fired, the timed activity that just fired. Deduplicates via stamps.
func (e *Engine) processDirty(fired *san.Activity) error {
	e.curStamp++
	e.stamp[fired.ID()] = e.curStamp
	if err := e.refresh(fired); err != nil {
		return err
	}
	for _, placeIdx := range e.state.Dirty() {
		for _, a := range e.model.Dependents(placeIdx) {
			if e.stamp[a.ID()] == e.curStamp {
				continue
			}
			e.stamp[a.ID()] = e.curStamp
			if err := e.refresh(a); err != nil {
				return err
			}
		}
	}
	e.state.ResetDirty()
	return nil
}

// instantEnabled returns what the model's MaxInstantPriorityEnabledInto
// would, evaluating only the instantaneous activities that read a place
// written since the last stable marking (the dirty list grows across a
// zero-delay chain until processDirty resets it): any other one is still
// disabled. Candidates stay in creation order, so races draw alike.
func (e *Engine) instantEnabled() []*san.Activity {
	dirty := e.state.Dirty()
	for _, p := range dirty[e.candSeen:] {
		for _, a := range e.model.Dependents(p) {
			if a.Kind() != san.Instant || e.stamp[a.ID()] == e.curStamp {
				continue
			}
			e.stamp[a.ID()] = e.curStamp
			i, _ := slices.BinarySearchFunc(e.instCand, a, byID)
			e.instCand = slices.Insert(e.instCand, i, a)
		}
	}
	e.candSeen = len(dirty)
	enabled := san.MaxPriorityEnabledInto(e.state, e.instCand, e.instBuf)
	e.instBuf = enabled[:0]
	if e.validate {
		e.checkInstantScan(enabled)
	}
	return enabled
}

func byID(a, b *san.Activity) int { return a.ID() - b.ID() }

// checkInstantScan read-traces every instantaneous predicate and panics
// unless a full scan finds what instantEnabled found.
func (e *Engine) checkInstantScan(got []*san.Activity) {
	for _, a := range e.model.Activities() {
		if a.Kind() == san.Instant {
			e.enabled(a)
		}
	}
	if full := e.model.MaxInstantPriorityEnabledInto(e.state, nil); !slices.Equal(got, full) {
		panic(fmt.Sprintf("sim: incremental instantaneous scan found %d enabled activities, a full scan %d",
			len(got), len(full)))
	}
}

// fanout dispatches trajectory callbacks to the reward observers. It is a
// plain value, not an interface: the engine's inner loop calls it millions
// of times per second, and the overwhelmingly common single-observer case
// (each precision measure runs alone) devirtualizes to one direct call
// instead of an interface dispatch plus a slice walk.
type fanout struct {
	one  reward.Observer   // set iff exactly one observer
	many []reward.Observer // otherwise
}

func newFanout(obs []reward.Observer) fanout {
	if len(obs) == 1 {
		return fanout{one: obs[0]}
	}
	return fanout{many: obs}
}

func (f fanout) init(s *san.State, t float64) {
	if f.one != nil {
		f.one.Init(s, t)
		return
	}
	for _, o := range f.many {
		o.Init(s, t)
	}
}
func (f fanout) advance(s *san.State, t0, t1 float64) {
	if f.one != nil {
		f.one.Advance(s, t0, t1)
		return
	}
	for _, o := range f.many {
		o.Advance(s, t0, t1)
	}
}
func (f fanout) fired(s *san.State, a *san.Activity, c int, t float64) {
	if f.one != nil {
		f.one.Fired(s, a, c, t)
		return
	}
	for _, o := range f.many {
		o.Fired(s, a, c, t)
	}
}
func (f fanout) done(s *san.State, t float64) {
	if f.one != nil {
		f.one.Done(s, t)
		return
	}
	for _, o := range f.many {
		o.Done(s, t)
	}
}

// RunOnce executes one replication to time until using the given stream,
// reporting the trajectory to observers. maxFirings guards against runaway
// models (0 means a generous default).
func (e *Engine) RunOnce(until float64, stream *rng.Stream, obs []reward.Observer, maxFirings int64) error {
	return e.RunOnceCtx(context.Background(), until, stream, obs, maxFirings)
}

// ctxCheckMask gates how often the hot loops poll ctx.Err(): every 256
// firings, keeping the watchdog responsive (a runaway instantaneous loop
// spins millions of firings per second) without measurable overhead.
const ctxCheckMask = 255

// RunOnceCtx is RunOnce with cooperative cancellation: the engine polls ctx
// every few hundred firings — including inside the instantaneous-activity
// resolution loop, so a zero-delay loop cannot wedge the replication — and
// returns ctx.Err() when the context is cancelled or its deadline passes.
// Exceeding maxFirings returns a *BudgetError.
func (e *Engine) RunOnceCtx(runCtx context.Context, until float64, stream *rng.Stream, obs []reward.Observer, maxFirings int64) error {
	if maxFirings <= 0 {
		maxFirings = 50_000_000
	}
	if err := runCtx.Err(); err != nil {
		return err
	}
	e.rand = stream
	if e.crn {
		e.repRoot = stream
		for i := range e.roleStreams {
			e.roleStreams[i] = nil
		}
		e.initStream = stream.RoleNamed("__init__")
		e.raceStream = stream.RoleNamed("__race__")
	}
	e.now = 0
	e.firings = 0
	e.heap = e.heap[:0]
	for i := range e.sched {
		e.sched[i].scheduled = false
		e.sched[i].gen++
	}
	// Reset to the initial marking from the engine's cached baseline: the
	// per-replication model.NewState() this replaces was one of the last
	// allocations on the replication path.
	e.state.CopyFrom(e.baseline)

	ctx := &e.ctx
	ctx.State, ctx.Rand, ctx.Now = e.state, e.rand, 0
	if e.crn {
		ctx.Rand = e.initStream
	}
	if init := e.model.Init(); init != nil {
		init(ctx)
	}
	if _, err := san.Stabilize(e.model, ctx); err != nil {
		return err
	}
	e.state.ResetDirty()
	if err := e.checkInvariants(); err != nil {
		return err
	}
	invEvery := e.invEvery
	if invEvery <= 0 {
		invEvery = DefaultInvariantEvery
	}
	nextInvCheck := invEvery
	watch := newFanout(obs)
	watch.init(e.state, 0)

	// Initial schedule: every timed activity is a candidate.
	for _, a := range e.model.Activities() {
		if err := e.refresh(a); err != nil {
			return err
		}
	}

	for len(e.heap) > 0 {
		ev := e.heap[0]
		ent := &e.sched[ev.act.ID()]
		if !ent.scheduled || ent.gen != ev.gen {
			e.heap.pop() // stale
			continue
		}
		if ev.time > until {
			break
		}
		e.heap.pop()
		ent.scheduled = false

		if ev.time > e.now {
			watch.advance(e.state, e.now, ev.time)
			e.now = ev.time
		}
		ctx.Now = e.now
		ctx.Rand = e.randFor(ev.act)

		caseIdx := ev.act.ChooseCase(ctx)
		ev.act.Fire(ctx, caseIdx)
		e.firings++
		watch.fired(e.state, ev.act, caseIdx, e.now)

		// Resolve instantaneous activities, reporting each vanishing
		// marking to observers (zero-width, so rate rewards are
		// unaffected but impulse/latch observers see them). chain counts
		// the zero-delay completions triggered by this one timed firing;
		// exceeding maxInstantChain is a livelock, detected here rather
		// than left to burn through the firing budget.
		var chain int64
		e.curStamp++
		e.instCand, e.candSeen = e.instCand[:0], 0
		for {
			enabled := e.instantEnabled()
			if len(enabled) == 0 {
				break
			}
			a := enabled[0]
			if len(enabled) > 1 {
				race := e.rand
				if e.crn {
					race = e.raceStream
				}
				a = enabled[race.Race(len(enabled))]
			}
			ctx.Rand = e.randFor(a)
			ci := a.ChooseCase(ctx)
			a.Fire(ctx, ci)
			e.firings++
			chain++
			watch.fired(e.state, a, ci, e.now)
			if chain > maxInstantChain {
				return &LivelockError{Chain: chain, At: e.now, Last: a.Name()}
			}
			if e.firings > maxFirings {
				return &BudgetError{Limit: maxFirings, At: e.now}
			}
			if e.firings&ctxCheckMask == 0 {
				if err := runCtx.Err(); err != nil {
					return err
				}
			}
		}

		if err := e.processDirty(ev.act); err != nil {
			return err
		}

		if len(e.invariants) > 0 && e.firings >= nextInvCheck {
			if err := e.checkInvariants(); err != nil {
				return err
			}
			nextInvCheck = e.firings + invEvery
		}
		if e.firings > maxFirings {
			return &BudgetError{Limit: maxFirings, At: e.now}
		}
		if e.firings&ctxCheckMask == 0 {
			if err := runCtx.Err(); err != nil {
				return err
			}
		}
	}

	if until > e.now {
		watch.advance(e.state, e.now, until)
		e.now = until
	}
	if err := e.checkInvariants(); err != nil {
		return err
	}
	watch.done(e.state, e.now)
	return nil
}
