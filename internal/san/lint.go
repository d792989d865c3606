package san

import (
	"fmt"
	"math"

	"ituaval/internal/rng"
)

// LintClass classifies a structural finding reported by Model.Lint.
type LintClass int

const (
	// LintCaseProb: an activity's static case probabilities do not sum to 1.
	LintCaseProb LintClass = iota + 1
	// LintNeverEnabled: an input-gate predicate that was false in every
	// probed marking, including arbitrary ones — the activity can never
	// fire, so it is dead weight or a contradiction in the gate.
	LintNeverEnabled
	// LintUnreachable: the predicate can be satisfied by some marking, but
	// no marking reachable from the initial configuration enabled it during
	// the probe walks.
	LintUnreachable
	// LintOrphanPlace: a place no activity reads or writes and no measure
	// observes — completely disconnected state.
	LintOrphanPlace
	// LintNeverRead: a place that is written but never read by any
	// activity, gate, or declared measure — state the model computes and
	// then ignores.
	LintNeverRead
	// LintBoundExceeded: a marking reached during the probe walks exceeded
	// the bound declared with Model.Bound.
	LintBoundExceeded
)

// String returns a stable lowercase identifier for the class.
func (c LintClass) String() string {
	switch c {
	case LintCaseProb:
		return "case-prob"
	case LintNeverEnabled:
		return "never-enabled"
	case LintUnreachable:
		return "unreachable"
	case LintOrphanPlace:
		return "orphan-place"
	case LintNeverRead:
		return "never-read"
	case LintBoundExceeded:
		return "bound-exceeded"
	}
	return fmt.Sprintf("lint-class-%d", int(c))
}

// LintFinding is one structural problem found by Model.Lint.
type LintFinding struct {
	Class   LintClass
	Subject string // place or activity name
	Detail  string
}

// String formats the finding for diagnostics.
func (f LintFinding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Class, f.Subject, f.Detail)
}

// Probe budgets of Model.Lint, sized so that linting a full ITUA study
// model takes well under a second.
const (
	// lintProbes is the number of arbitrary ("wild") markings sampled to
	// test predicate satisfiability.
	lintProbes = 256
	// lintWalks is the number of random firing walks taken from the
	// initial configuration to approximate the reachable marking set.
	lintWalks = 64
	// lintWalkLen is the number of firings per walk.
	lintWalkLen = 256
	// lintMaxMarking caps wild-probe values for places without a declared
	// Bound.
	lintMaxMarking Marking = 8
	// lintSeed drives all probe randomness, so Lint is deterministic.
	lintSeed = 1
)

// Lint statically checks a finalized model for structural defects that
// Finalize's local validation cannot see: case-probability sums, activities
// that can never enable or are unreachable from the initial configuration,
// places nothing reads or writes, and violations of declared marking bounds.
//
// The reachability and read/write analyses are probe-based heuristics:
// predicates are evaluated over sampled markings (clamped to declared
// bounds) and over coverage-guided firing walks from the initial state
// (walks prefer activities and cases not yet exercised, so low-probability
// chains are covered deterministically rather than by a budget lottery),
// with every user callback wrapped in a panic guard. A clean result is
// therefore not a proof, but every finding points at a concrete marking or
// activity, and on the ITUA models the walks cover the full activity set.
// Findings are reported in deterministic order.
func (m *Model) Lint() []LintFinding {
	if !m.finalized {
		panic("san: Lint before Finalize")
	}
	var findings []LintFinding

	// Static case-probability sums. Finalize only requires a positive
	// total (the sampler normalizes); the lint contract is stricter: static
	// case probabilities are probabilities and must sum to 1.
	for _, a := range m.acts {
		d := &a.def
		if len(d.Cases) < 2 {
			continue
		}
		total := 0.0
		for _, c := range d.Cases {
			total += c.Prob
		}
		if math.Abs(total-1) > 1e-6 {
			findings = append(findings, LintFinding{
				Class:   LintCaseProb,
				Subject: d.Name,
				Detail:  fmt.Sprintf("case probabilities sum to %g, want 1", total),
			})
		}
	}

	pr := newProber(m)
	pr.probeWild()
	pr.walk()
	pr.fireAllCases()

	for _, a := range m.acts {
		switch {
		case !pr.enabledWild[a.id] && !pr.enabledReach[a.id]:
			findings = append(findings, LintFinding{
				Class:   LintNeverEnabled,
				Subject: a.def.Name,
				Detail: fmt.Sprintf("enabling predicate false on all %d probed markings and %d walk states",
					lintProbes, pr.walkStates),
			})
		case !pr.enabledReach[a.id]:
			findings = append(findings, LintFinding{
				Class:   LintUnreachable,
				Subject: a.def.Name,
				Detail: fmt.Sprintf("predicate satisfiable, but never enabled in %d walk states from the initial configuration",
					pr.walkStates),
			})
		}
	}

	for _, p := range m.places {
		read := pr.read[p.index] || m.observed[p.index]
		switch {
		case !read && !pr.written[p.index]:
			findings = append(findings, LintFinding{
				Class:   LintOrphanPlace,
				Subject: p.name,
				Detail:  "no activity reads or writes it and no measure observes it",
			})
		case !read:
			findings = append(findings, LintFinding{
				Class:   LintNeverRead,
				Subject: p.name,
				Detail:  "written by the model but read by no activity or measure",
			})
		}
	}

	for _, p := range m.places {
		b, ok := m.bounds[p.index]
		if !ok {
			continue
		}
		if p.init > b {
			findings = append(findings, LintFinding{
				Class:   LintBoundExceeded,
				Subject: p.name,
				Detail:  fmt.Sprintf("initial marking %d exceeds declared bound %d", p.init, b),
			})
		} else if worst, hit := pr.boundHit[p.index]; hit {
			findings = append(findings, LintFinding{
				Class:   LintBoundExceeded,
				Subject: p.name,
				Detail:  fmt.Sprintf("walk reached marking %d, exceeding declared bound %d", worst, b),
			})
		}
	}
	return findings
}

// prober holds the dynamic-analysis scratch state for one Lint call.
type prober struct {
	m   *Model
	rnd *rng.Stream

	caps []Marking // per-place wild-probe cap

	enabledWild  []bool  // enabled in some arbitrary marking
	enabledReach []bool  // enabled in some walk (reachable-ish) state
	read         []bool  // read by a predicate, gate, or effect
	written      []bool  // written by init hook or some fired case
	fired        []int   // walk fire counts, for coverage guidance
	caseFired    [][]int // per-case walk fire counts
	boundHit     map[int]Marking
	walkStates   int

	wild []*State // sampled arbitrary markings (kept for fireAllCases)
}

func newProber(m *Model) *prober {
	pr := &prober{
		m:            m,
		rnd:          rng.New(lintSeed),
		caps:         make([]Marking, len(m.places)),
		enabledWild:  make([]bool, len(m.acts)),
		enabledReach: make([]bool, len(m.acts)),
		read:         make([]bool, len(m.places)),
		written:      make([]bool, len(m.places)),
		fired:        make([]int, len(m.acts)),
		caseFired:    make([][]int, len(m.acts)),
		boundHit:     make(map[int]Marking),
	}
	for _, a := range m.acts {
		pr.caseFired[a.id] = make([]int, len(a.def.Cases))
	}
	for _, p := range m.places {
		hi := lintMaxMarking
		if b, ok := m.bounds[p.index]; ok {
			hi = b
		}
		if p.init > hi {
			hi = p.init
		}
		pr.caps[p.index] = hi
	}
	// Declared reads are reads by contract, whether or not a probe
	// exercises them.
	for _, a := range m.acts {
		for _, p := range a.def.Reads {
			pr.read[p.index] = true
		}
	}
	return pr
}

// safeEnabled evaluates a's predicate, treating a panic (possible on
// arbitrary markings that violate the model's implicit invariants, e.g. a
// marking used as a slice index) as "not enabled".
func safeEnabled(a *Activity, s *State) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return a.def.Enabled(s)
}

// safeFire fires case ci of a in ctx, reporting whether it completed
// without panicking.
func safeFire(a *Activity, ctx *Context, ci int) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	a.Fire(ctx, ci)
	return true
}

// probeWild samples arbitrary markings (each place uniform in [0, cap]) and
// records which predicates they satisfy.
func (pr *prober) probeWild() {
	base := pr.baseState(pr.rnd.Derive(0))
	pr.recordEnabled(base, pr.enabledWild)
	for k := 0; k < lintProbes; k++ {
		s := pr.m.NewState()
		for _, p := range pr.m.places {
			s.m[p.index] = Marking(pr.rnd.Intn(int(pr.caps[p.index]) + 1))
		}
		pr.wild = append(pr.wild, s)
		pr.recordEnabled(s, pr.enabledWild)
	}
}

// baseState builds the initial configuration: initial markings plus the
// init hook (panic-guarded; its writes count as model writes).
func (pr *prober) baseState(stream *rng.Stream) *State {
	s := pr.m.NewState()
	if fn := pr.m.initFn; fn != nil {
		func() {
			defer func() { _ = recover() }()
			s.StartTrace()
			fn(&Context{State: s, Rand: stream, Now: 0})
		}()
		for pi := range s.StopTrace() {
			pr.read[pi] = true
		}
		for _, pi := range s.Dirty() {
			pr.written[pi] = true
		}
		s.ResetDirty()
	}
	return s
}

func (pr *prober) recordEnabled(s *State, into []bool) {
	for _, a := range pr.m.acts {
		if !into[a.id] && safeEnabled(a, s) {
			into[a.id] = true
		}
	}
}

// walk approximates the reachable marking set by random firing walks from
// the initial configuration, respecting the engine's semantics that enabled
// instantaneous activities (at the highest priority) preempt timed ones.
func (pr *prober) walk() {
	for w := 0; w < lintWalks; w++ {
		s := pr.baseState(pr.rnd.Derive(uint64(w) + 1))
		snap := pr.m.NewState()
		fireStream := pr.rnd.Derive(uint64(w) + 1).Role(1)
		for step := 0; step < lintWalkLen; step++ {
			pr.walkStates++
			pr.checkBounds(s)
			cands := pr.enabledCandidates(s)
			if len(cands) == 0 {
				break
			}
			a := pr.pickActivity(cands)
			snap.CopyFrom(s)
			s.ResetDirty()
			s.StartTrace()
			ci := pr.pickCase(a, fireStream)
			pr.fired[a.id]++
			pr.caseFired[a.id][ci]++
			ok := safeFire(a, &Context{State: s, Rand: fireStream, Now: float64(step)}, ci)
			for pi := range s.StopTrace() {
				pr.read[pi] = true
			}
			if !ok {
				// A panic mid-effect leaves a half-applied marking;
				// discard it and end this walk.
				s.CopyFrom(snap)
				break
			}
			for _, pi := range s.Dirty() {
				pr.written[pi] = true
			}
			s.ResetDirty()
		}
	}
}

// enabledCandidates returns the activities eligible to fire next in s,
// recording every enabled activity as reachable. Instantaneous activities
// at the highest enabled priority preempt timed activities, as in the
// engine.
func (pr *prober) enabledCandidates(s *State) []*Activity {
	var timed, instant []*Activity
	bestPrio := 0
	for _, a := range pr.m.acts {
		if !safeEnabled(a, s) {
			continue
		}
		pr.enabledReach[a.id] = true
		if a.def.Kind == Timed {
			timed = append(timed, a)
			continue
		}
		switch {
		case instant == nil || a.def.Priority > bestPrio:
			instant = append(instant[:0], a)
			bestPrio = a.def.Priority
		case a.def.Priority == bestPrio:
			instant = append(instant, a)
		}
	}
	if len(instant) > 0 {
		return instant
	}
	return timed
}

// pickActivity chooses the next activity to fire, preferring candidates
// that no walk has fired yet. The walks are a reachability search, not a
// statistically faithful simulation, so coverage-guided choice is sound —
// and it makes low-probability chains (a rare attack class followed by its
// detection) deterministic to cover instead of a budget lottery.
func (pr *prober) pickActivity(cands []*Activity) *Activity {
	var fresh []*Activity
	for _, a := range cands {
		if pr.fired[a.id] == 0 {
			fresh = append(fresh, a)
		}
	}
	if len(fresh) > 0 {
		return fresh[pr.rnd.Intn(len(fresh))]
	}
	return cands[pr.rnd.Intn(len(cands))]
}

// pickCase chooses a case of a, preferring cases no walk has taken yet and
// falling back to probability-weighted sampling.
func (pr *prober) pickCase(a *Activity, stream *rng.Stream) int {
	if len(a.def.Cases) > 1 {
		var fresh []int
		for ci, n := range pr.caseFired[a.id] {
			if n == 0 {
				fresh = append(fresh, ci)
			}
		}
		if len(fresh) > 0 {
			return fresh[pr.rnd.Intn(len(fresh))]
		}
	}
	if len(a.def.Cases) == 1 {
		return 0
	}
	return stream.Category(a.caseW)
}

func (pr *prober) checkBounds(s *State) {
	for pi, b := range pr.m.bounds {
		if v := s.m[pi]; v > b {
			if worst, ok := pr.boundHit[pi]; !ok || v > worst {
				pr.boundHit[pi] = v
			}
		}
	}
}

// fireAllCases fires every case of every activity on the initial
// configuration and a sample of wild markings, regardless of enabling, to
// harvest read/write sets that the walks may not cover (e.g. effects of
// rarely-fired activities). Effects run on scratch copies.
func (pr *prober) fireAllCases() {
	probes := []*State{pr.baseState(pr.rnd.Derive(1 << 32))}
	for i := 0; i < len(pr.wild) && i < 8; i++ {
		probes = append(probes, pr.wild[i])
	}
	scratch := pr.m.NewState()
	stream := pr.rnd.Derive(2 << 32)
	for _, a := range pr.m.acts {
		for ci := range a.def.Cases {
			for _, ps := range probes {
				scratch.CopyFrom(ps)
				scratch.StartTrace()
				ok := safeFire(a, &Context{State: scratch, Rand: stream, Now: 0}, ci)
				for pi := range scratch.StopTrace() {
					pr.read[pi] = true
				}
				if ok {
					for _, pi := range scratch.Dirty() {
						pr.written[pi] = true
					}
				}
				scratch.ResetDirty()
			}
		}
	}
}
