package san

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Model is a flat stochastic activity network: the result of composing
// atomic submodels through scopes. Build places and activities, then call
// Finalize before handing the model to a solver.
type Model struct {
	name       string
	places     []*Place
	placeNames map[string]*Place
	acts       []*Activity
	actNames   map[string]*Activity
	deps       [][]*Activity // place index -> activities reading it
	instants   []*Activity   // instantaneous activities, creation order
	initFn     func(ctx *Context)
	finalized  bool
	defErrs    []error         // place-construction errors deferred to Finalize
	observed   map[int]bool    // place index -> read by measures outside activities
	bounds     map[int]Marking // place index -> declared marking bound
}

// NewModel creates an empty model.
func NewModel(name string) *Model {
	return &Model{
		name:       name,
		placeNames: make(map[string]*Place),
		actNames:   make(map[string]*Activity),
		observed:   make(map[int]bool),
		bounds:     make(map[int]Marking),
	}
}

// Name returns the model name.
func (m *Model) Name() string { return m.name }

// Place creates a new place with the given unique name and initial marking.
// It panics if the model is finalized; a duplicate name or a negative
// initial marking is recorded and reported by Finalize, so model-building
// code stays linear (composition code should use Scope, which produces
// unique scoped names).
func (m *Model) Place(name string, init Marking) *Place {
	if m.finalized {
		panic("san: Place after Finalize")
	}
	if init < 0 {
		m.defErrs = append(m.defErrs, fmt.Errorf("place %q has negative initial marking %d", name, init))
		init = 0
	}
	if _, dup := m.placeNames[name]; dup {
		m.defErrs = append(m.defErrs, fmt.Errorf("duplicate place name %q", name))
	}
	p := &Place{name: name, index: len(m.places), init: init}
	m.places = append(m.places, p)
	m.placeNames[name] = p
	return p
}

// Observe declares that p is read from outside the activity network — by a
// reward measure, a harness, or a test — so the lint pass does not flag it
// as an orphan or never-read place.
func (m *Model) Observe(ps ...*Place) {
	for _, p := range ps {
		m.observed[p.index] = true
	}
}

// Observed reports whether p was declared Observe'd.
func (m *Model) Observed(p *Place) bool { return m.observed[p.index] }

// Bound declares that p's marking never exceeds max. The bound is
// documentation the model vouches for: the lint pass checks it against the
// initial marking and probe firings, and runtime invariant monitors (see
// internal/integrity) can enforce it on every simulated trajectory.
func (m *Model) Bound(p *Place, max Marking) {
	if max < 0 {
		m.defErrs = append(m.defErrs, fmt.Errorf("place %q declares negative bound %d", p.name, max))
		return
	}
	m.bounds[p.index] = max
}

// BoundOf returns p's declared marking bound, if any.
func (m *Model) BoundOf(p *Place) (Marking, bool) {
	b, ok := m.bounds[p.index]
	return b, ok
}

// AddActivity registers an activity definition. Errors are deferred to
// Finalize so model-building code stays linear.
func (m *Model) AddActivity(def ActivityDef) *Activity {
	if m.finalized {
		panic("san: AddActivity after Finalize")
	}
	a := &Activity{def: def, id: len(m.acts), model: m}
	m.acts = append(m.acts, a)
	return a
}

// SetInit registers a hook that runs once at time zero, before any activity
// fires, to establish the initial configuration (the paper's model does this
// with high-rate "assign_id"/"start_replica" activities; a hook is the
// direct expression). The hook may use ctx.Rand.
func (m *Model) SetInit(fn func(ctx *Context)) { m.initFn = fn }

// Init returns the initialization hook (may be nil).
func (m *Model) Init() func(ctx *Context) { return m.initFn }

// Places returns all places in creation order.
func (m *Model) Places() []*Place { return m.places }

// Activities returns all activities in creation order.
func (m *Model) Activities() []*Activity { return m.acts }

// PlaceByName returns the named place, or nil.
func (m *Model) PlaceByName(name string) *Place { return m.placeNames[name] }

// ActivityByName returns the named activity, or nil.
func (m *Model) ActivityByName(name string) *Activity { return m.actNames[name] }

// Finalize validates the model structure and builds the place→activity
// dependency index. It must be called exactly once before solving.
func (m *Model) Finalize() error {
	if m.finalized {
		return errors.New("san: model already finalized")
	}
	errs := append([]error(nil), m.defErrs...)
	seen := make(map[string]bool, len(m.acts))
	for _, a := range m.acts {
		d := &a.def
		switch {
		case d.Name == "":
			errs = append(errs, fmt.Errorf("activity %d has no name", a.id))
		case seen[d.Name]:
			errs = append(errs, fmt.Errorf("duplicate activity name %q", d.Name))
		default:
			seen[d.Name] = true
			m.actNames[d.Name] = a
		}
		if d.Kind != Timed && d.Kind != Instant {
			errs = append(errs, fmt.Errorf("activity %q has invalid kind %d", d.Name, d.Kind))
		}
		if d.Kind == Timed && d.Rate == nil {
			errs = append(errs, fmt.Errorf("timed activity %q has no rate", d.Name))
		}
		if d.Enabled == nil {
			errs = append(errs, fmt.Errorf("activity %q has no enabling predicate", d.Name))
		}
		if len(d.Cases) == 0 {
			errs = append(errs, fmt.Errorf("activity %q has no cases", d.Name))
		}
		if len(d.Cases) > 1 {
			total := 0.0
			for _, c := range d.Cases {
				// NaN fails every comparison and +Inf swamps the draw, so
				// both would pass a plain sign check and break sampling.
				if !(c.Prob >= 0) || math.IsInf(c.Prob, 1) {
					errs = append(errs, fmt.Errorf("activity %q case %q has probability %v, want finite and >= 0", d.Name, c.Name, c.Prob))
				}
				total += c.Prob
			}
			if total <= 0 {
				errs = append(errs, fmt.Errorf("activity %q has non-positive total case probability", d.Name))
			} else if math.IsInf(total, 1) {
				errs = append(errs, fmt.Errorf("activity %q has an infinite total case probability", d.Name))
			}
		}
		if len(d.Reads) == 0 {
			errs = append(errs, fmt.Errorf("activity %q declares no read dependencies", d.Name))
		}
		for _, p := range d.Reads {
			if p == nil {
				errs = append(errs, fmt.Errorf("activity %q has nil place in Reads", d.Name))
				continue
			}
			if p.index >= len(m.places) || m.places[p.index] != p {
				errs = append(errs, fmt.Errorf("activity %q reads place %q from another model", d.Name, p.name))
			}
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	m.deps = make([][]*Activity, len(m.places))
	for _, a := range m.acts {
		added := make(map[int]bool, len(a.def.Reads))
		for _, p := range a.def.Reads {
			if !added[p.index] {
				added[p.index] = true
				m.deps[p.index] = append(m.deps[p.index], a)
			}
		}
		if a.def.Kind == Instant {
			m.instants = append(m.instants, a)
		}
		a.caseW = make([]float64, len(a.def.Cases))
		for i, c := range a.def.Cases {
			a.caseW[i] = c.Prob
		}
	}
	m.finalized = true
	return nil
}

// Finalized reports whether Finalize has completed.
func (m *Model) Finalized() bool { return m.finalized }

// Dependents returns the activities whose declared reads include the place
// with the given state index.
func (m *Model) Dependents(placeIndex int) []*Activity { return m.deps[placeIndex] }

// NewState allocates a state initialized to the model's initial marking.
// The initialization hook is NOT run; solvers run it with their own Context.
func (m *Model) NewState() *State {
	if !m.finalized {
		panic("san: NewState before Finalize")
	}
	s := &State{
		m:       make([]Marking, len(m.places)),
		isDirty: make([]bool, len(m.places)),
	}
	for _, p := range m.places {
		s.m[p.index] = p.init
	}
	return s
}

// MaxInstantPriorityEnabledInto returns the instantaneous activities
// enabled in s at the highest enabled priority level, in creation order,
// appending into buf (which may be nil) so a caller in a hot loop can reuse
// one scratch slice. The result shares buf's backing array; it is empty
// when no instantaneous activity is enabled.
func (m *Model) MaxInstantPriorityEnabledInto(s *State, buf []*Activity) []*Activity {
	return MaxPriorityEnabledInto(s, m.instants, buf)
}

// MaxPriorityEnabledInto is MaxInstantPriorityEnabledInto over among only,
// in its order: the same result whenever among holds, in creation order,
// every instantaneous activity that can be enabled in s.
func MaxPriorityEnabledInto(s *State, among, buf []*Activity) []*Activity {
	best := buf[:0]
	bestPrio := 0
	found := false
	for _, a := range among {
		if !a.def.Enabled(s) {
			continue
		}
		switch {
		case !found || a.def.Priority > bestPrio:
			best = append(best[:0], a)
			bestPrio = a.def.Priority
			found = true
		case a.def.Priority == bestPrio:
			best = append(best, a)
		}
	}
	return best
}

// Summary returns a human-readable structural summary, used by cmd/sandot
// and tests.
func (m *Model) Summary() string {
	timed, instant := 0, 0
	for _, a := range m.acts {
		if a.def.Kind == Timed {
			timed++
		} else {
			instant++
		}
	}
	return fmt.Sprintf("model %q: %d places, %d timed + %d instantaneous activities",
		m.name, len(m.places), timed, instant)
}

// SortedPlaceNames returns all place names sorted, for stable diagnostics.
func (m *Model) SortedPlaceNames() []string {
	names := make([]string, 0, len(m.places))
	for _, p := range m.places {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}
