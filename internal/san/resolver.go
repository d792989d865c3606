package san

import (
	"errors"
	"fmt"
	"sort"
)

// maxEnumDepth bounds the instantaneous-firing recursion during
// enumeration, the analytic counterpart of maxInstantChain.
const maxEnumDepth = 64

// errMultOverflow fails a resolution whose branch multiplicity (the
// number of full branches a folded Permute branch stands for, times the
// multiplicity of the path that led to it) does not fit an int.
var errMultOverflow = errors.New("san: enumeration branch multiplicity overflows int")

// Resolver enumerates every probabilistic resolution of an activity firing
// down to stable markings: the tree spanned by the in-effect enumerable
// choices (Context.Choose / ChooseWeighted / Permute) and by the races and
// cases of the instantaneous activities that fire afterwards. It is the
// analytic-path counterpart of Stabilize and the engine under
// EnumerateStable and mc.Generate.
//
// A Resolver is single-use-at-a-time and not safe for concurrent use. Its
// per-depth states, script stacks and choice buffers are reused across
// calls and branches, so once they have grown to the model's widest
// enumeration a resolution allocates nothing, however many branches it
// forks.
type Resolver struct {
	m      *Model
	ec     enumChooser
	frames []*resolveFrame
	visit  func(*State, float64, int) error
}

// resolveFrame holds the per-depth scratch: the working state executions
// at this depth mutate, the context they run in, the instantaneous-activity
// buffer, and the stack of pending choice scripts. A script is a span of
// the arena; spans are pushed and popped LIFO, so a popped script's ints
// are always the arena's tail and the arena shrinks back over them.
type resolveFrame struct {
	state *State
	ctx   Context
	insts []*Activity
	arena []int
	spans []scriptSpan
}

// scriptSpan locates one pending choice script in its frame's arena.
type scriptSpan struct{ off, n int }

// NewResolver returns a resolver for m, which must be finalized.
func NewResolver(m *Model) *Resolver {
	if !m.Finalized() {
		panic("san: NewResolver before Finalize")
	}
	return &Resolver{m: m}
}

func (r *Resolver) frame(depth int) *resolveFrame {
	for len(r.frames) <= depth {
		r.frames = append(r.frames, &resolveFrame{state: r.m.NewState()})
	}
	return r.frames[depth]
}

// Resolve enumerates the stable outcomes of firing case ci of activity a
// from base — or, when a is nil, of running fn (which may itself be nil,
// e.g. to resolve an already-vanishing marking) — and calls visit once per
// outcome path with the resulting stable state, the path probability and
// the path multiplicity. base is not modified. The state passed to visit
// is pooled and valid only during the call; the same stable marking can be
// reached on several paths, so callers aggregate probabilities by marking
// key.
//
// A path of multiplicity m stands for m full enumeration paths of the
// same probability (see Context.Permute): a caller that sums
// probabilities adds it m times, with AddRepeated. Where every full path
// reaching a marking has one probability, as under a uniform placement
// permutation, that sum has the bits of visiting each full path, in any
// order. Paths without a folded Permute have multiplicity 1. A
// multiplicity past the int range fails the resolution.
//
// Gate code runs with a nil Rand: a direct ctx.Rand draw panics (the
// caller reports the model as not numerically solvable), while the
// enumerable choice methods branch exhaustively.
func (r *Resolver) Resolve(base *State, a *Activity, ci int, fn func(*Context), visit func(*State, float64, int) error) error {
	r.visit = visit
	defer func() { r.visit = nil }()
	return r.fire(0, base, a, ci, fn, 1, 1)
}

// fire executes one firing (activity case or free function) from base once
// per distinct in-effect decision path, resolving each outcome's
// instantaneous activities, with depth indexing the scratch pools. prob
// and mult are the probability and multiplicity of the path that led to
// the firing.
func (r *Resolver) fire(depth int, base *State, a *Activity, ci int, fn func(*Context), prob float64, mult int) error {
	if depth >= maxEnumDepth {
		return fmt.Errorf("%w (enumeration depth > %d)", ErrUnstable, maxEnumDepth)
	}
	f := r.frame(depth)
	f.arena = f.arena[:0]
	f.spans = append(f.spans[:0], scriptSpan{})
	for len(f.spans) > 0 {
		sp := f.spans[len(f.spans)-1]
		f.spans = f.spans[:len(f.spans)-1]
		st := f.state
		st.CopyFrom(base)
		r.ec.reset(f.arena[sp.off:sp.off+sp.n], mult)
		f.ctx = Context{State: st, enum: &r.ec}
		switch {
		case a != nil:
			a.Fire(&f.ctx, ci)
		case fn != nil:
			fn(&f.ctx)
		}
		if r.ec.overflow {
			return errMultOverflow
		}
		// The script has been replayed: release its ints, then fork the
		// untaken alternatives of every fresh choice point now, since the
		// recursion below reuses the shared chooser.
		f.arena = f.arena[:sp.off]
		for j := sp.n; j < len(r.ec.path); j++ {
			cp := r.ec.path[j]
			for alt := cp.taken + 1; alt < cp.n; alt++ {
				if cp.weighted && !(r.ec.weight(cp, alt) > 0) {
					continue
				}
				off := len(f.arena)
				for i := 0; i < j; i++ {
					f.arena = append(f.arena, r.ec.path[i].taken)
				}
				f.arena = append(f.arena, alt)
				f.spans = append(f.spans, scriptSpan{off: off, n: j + 1})
			}
		}
		if err := r.settle(depth, st, prob*r.ec.prob, r.ec.mult); err != nil {
			return err
		}
	}
	return nil
}

// settle resolves the instantaneous activities enabled in s (a state owned
// by depth's frame), recursing through fire for each race/case branch, and
// visits s when it is stable. mult carries across depths like prob.
func (r *Resolver) settle(depth int, s *State, prob float64, mult int) error {
	f := r.frames[depth]
	enabled := r.m.MaxInstantPriorityEnabledInto(s, f.insts[:0])
	f.insts = enabled
	if len(enabled) == 0 {
		return r.visit(s, prob, mult)
	}
	race := 1 / float64(len(enabled))
	for _, a := range enabled {
		weights := a.CaseWeights()
		totalCW := 0.0
		for _, w := range weights {
			totalCW += w
		}
		if totalCW <= 0 {
			return fmt.Errorf("san: activity %q has non-positive case weights during enumeration", a.Name())
		}
		for ci := range a.Cases() {
			if weights[ci] == 0 {
				continue
			}
			p := prob * race * (weights[ci] / totalCW)
			if err := r.fire(depth+1, s, a, ci, nil, p, mult); err != nil {
				return err
			}
		}
	}
	return nil
}

// Successor is one probabilistic outcome of resolving the instantaneous
// activities from a (vanishing) marking: a stable marking reached with the
// given probability. Key is the compact AppendMarkingKey encoding.
type Successor struct {
	Key  string
	M    []Marking
	Prob float64
}

// EnumerateStable explores every resolution of the instantaneous
// activities from the marking in s and returns the distribution over
// stable markings, sorted by marking key so the order is reproducible.
// The probability of each branch combines the uniform race with the case
// weights; in-effect enumerable choices branch exhaustively (a folded
// Permute branch adds its probability once per full permutation it
// stands for), and any direct ctx.Rand draw panics (the caller reports
// the model as not numerically solvable).
func EnumerateStable(m *Model, s *State) ([]Successor, error) {
	r := NewResolver(m)
	acc := make(map[string]int)
	var out []Successor
	err := r.Resolve(s, nil, 0, nil, func(st *State, prob float64, mult int) error {
		key := string(AppendMarkingKey(make([]byte, 0, len(st.m)), st.m))
		i, ok := acc[key]
		if !ok {
			i = len(out)
			acc[key] = i
			out = append(out, Successor{Key: key, M: append([]Marking(nil), st.m...), Prob: prob})
			mult--
		}
		out[i].Prob = AddRepeated(out[i].Prob, prob, mult)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}
