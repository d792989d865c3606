// Package san implements stochastic activity networks (SANs), the modeling
// formalism of Sanders and Meyer used by the Möbius tool: places holding
// non-negative integer markings, timed activities with exponential firing
// times at (possibly marking-dependent) rates, instantaneous activities
// with priorities and uniform races, cases with static probabilities,
// enabling predicates, and output gates expressed as Go effect functions.
//
// The package also provides Möbius-style composed models: atomic submodels
// are instantiated inside Scopes that control which places are shared
// (Rep via Replicate, Join via sibling Child scopes), producing one flat
// Model that the internal/sim discrete-event engine or the internal/mc
// numerical solver executes.
package san

import (
	"fmt"

	"ituaval/internal/rng"
)

// Marking is the value held by a place. SA network markings are natural
// numbers; the paper's Möbius model uses C "short", hence int32.
type Marking = int32

// Place is a state variable of the model. Places are created through a
// Model or Scope and are immutable after Finalize.
type Place struct {
	name  string
	index int
	init  Marking
}

// Name returns the fully scoped place name.
func (p *Place) Name() string { return p.name }

// Index returns the place's slot in the state vector (valid after
// Finalize).
func (p *Place) Index() int { return p.index }

// Initial returns the place's initial marking.
func (p *Place) Initial() Marking { return p.init }

// State is a marking vector for a finalized model. It records which places
// were written since the last ResetDirty, which the engine uses to update
// activity enabling incrementally, and can optionally trace reads to verify
// declared activity dependency lists.
type State struct {
	m       []Marking
	dirty   []int
	isDirty []bool
	tracing bool
	reads   map[int]struct{}
	readAll bool
}

// Get returns the marking of p.
func (s *State) Get(p *Place) Marking {
	if s.tracing {
		s.reads[p.index] = struct{}{}
	}
	return s.m[p.index]
}

// Int returns the marking of p as an int, for convenience in arithmetic
// predicates.
func (s *State) Int(p *Place) int { return int(s.Get(p)) }

// Set writes the marking of p. It panics if v is negative: SAN markings are
// natural numbers, so a negative write is a modeling bug.
func (s *State) Set(p *Place, v Marking) {
	if v < 0 {
		panic(fmt.Sprintf("san: negative marking %d for place %q", v, p.name))
	}
	if s.m[p.index] == v {
		return
	}
	s.m[p.index] = v
	if !s.isDirty[p.index] {
		s.isDirty[p.index] = true
		s.dirty = append(s.dirty, p.index)
	}
}

// Add increments the marking of p by d (d may be negative; the result must
// stay non-negative).
func (s *State) Add(p *Place, d Marking) { s.Set(p, s.m[p.index]+d) }

// Markings returns the raw marking vector. The slice aliases the state; it
// must not be modified by callers (use Set/Add).
func (s *State) Markings() []Marking {
	if s.tracing {
		// The caller can read every place through the raw vector; a trace
		// consumer must treat this as "depends on the whole marking".
		s.readAll = true
	}
	return s.m
}

// CopyFrom overwrites this state's markings with src's.
func (s *State) CopyFrom(src *State) {
	copy(s.m, src.m)
	s.ResetDirty()
}

// ResetDirty clears the dirty-place list.
func (s *State) ResetDirty() {
	for _, i := range s.dirty {
		s.isDirty[i] = false
	}
	s.dirty = s.dirty[:0]
}

// Dirty returns the indices of places written since the last ResetDirty.
// The slice aliases internal storage and is valid until the next write or
// reset.
func (s *State) Dirty() []int { return s.dirty }

// StartTrace begins recording place reads (used by the engine's validation
// mode to check declared dependency lists).
func (s *State) StartTrace() {
	s.tracing = true
	s.readAll = false
	if s.reads == nil {
		s.reads = make(map[int]struct{})
	}
}

// StopTrace ends read recording and returns the set of read place indices.
// If the traced code obtained the raw vector via Markings, the set is
// incomplete; check ReadAllTraced.
func (s *State) StopTrace() map[int]struct{} {
	s.tracing = false
	r := s.reads
	s.reads = nil
	return r
}

// ReadAllTraced reports whether the last trace saw a Markings call (a read
// of the entire vector). Valid until the next StartTrace.
func (s *State) ReadAllTraced() bool { return s.readAll }

// Context carries everything an output-gate effect function may use: the
// state, the replication's random stream, and the current simulation time.
// Gate code in Möbius is arbitrary C++; allowing effects to draw random
// numbers mirrors that power (but models that should remain numerically
// solvable must not use Rand — the mc solver passes Rand == nil).
type Context struct {
	State *State
	Rand  *rng.Stream
	Now   float64

	// enum, when non-nil, redirects the enumerable choice methods
	// (Choose, ChooseWeighted, Permute) from sampling to exhaustive
	// branching; it is set only by the analytic Resolver.
	enum *enumChooser
}
