package sim

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ituaval/internal/rng"
	"ituaval/internal/stats"
)

// FlatResult is RunFlat's outcome for one spec: the (*Results, error) pair
// RunContext returns for it.
type FlatResult struct {
	// Results is non-nil whenever the spec was valid, even when Err != nil,
	// so callers can always salvage completed work.
	Results *Results
	// Err is the spec's validation error, ctx.Err() after cancellation, or
	// the failure-tolerance breach — nil on clean completion.
	Err error
}

// FlatHooks are optional progress callbacks for RunFlatFunc. Both hooks are
// invoked from worker goroutines and must be safe for concurrent use; they
// must not block for long, since a blocked hook stalls its worker.
type FlatHooks struct {
	// OnRep is called after every finished work unit of the given spec —
	// a completed, failed, or (after cancellation) drained replication.
	OnRep func(spec int)
	// OnSpec is called exactly once per spec, as soon as its last unit
	// finishes and its results are aggregated. The FlatResult it receives is
	// the spec's eager snapshot: a spec that fully completed before a later
	// cancellation is reported here with Err == nil, while the slice
	// RunFlatFunc returns carries ctx.Err() for every spec once the context
	// is cancelled (matching RunFlat's historical semantics). Invalid specs
	// are reported before any unit runs.
	OnSpec func(spec int, fr FlatResult)
}

// RunFlat executes several independent studies on one shared worker pool.
// The (spec, replication) pairs of all specs are flattened into a single
// work stream, so a sweep of many small points keeps every worker busy to
// the end instead of paying a synchronization barrier per point. It is the
// one replication scheduler: RunContext is RunFlat over a single spec.
//
// Replication j of every spec draws from the same derived stream whichever
// worker runs it, and each spec folds its finished replications in
// replication order (see fold), so every result is bit-identical at every
// worker count. Observations are released as soon as they are folded: a
// spec's memory does not grow with Reps unless it keeps per-replication
// values.
//
// workers <= 0 selects GOMAXPROCS. Cancelling ctx stops the stream
// gracefully: unattempted replications count as Skipped and every valid
// spec's Err becomes ctx.Err().
func RunFlat(ctx context.Context, specs []Spec, workers int) []FlatResult {
	return RunFlatFunc(ctx, specs, workers, FlatHooks{})
}

// outcome is one finished replication: its observations and firings when
// it completed, its failure when it failed, neither when it was skipped.
type outcome struct {
	vals    [][]float64
	firings int64
	ferr    *ReplicationError
	done    bool // set once the replication has finished
}

// fold is one spec's streaming aggregation. Workers hand it outcomes in
// whatever order they finish; a cursor folds the consecutive run of
// finished replications in replication order — the one order every worker
// count produces — and releases each one's observations. Outcomes that
// finish ahead of the cursor wait in a ring that stays small: it holds only
// what other workers finished while an earlier replication was still
// running.
type fold struct {
	spec *Spec
	root *rng.Stream

	mu     sync.Mutex
	next   int       // batch-local index of the next replication to fold
	ahead  []outcome // ring: replication r waits in ahead[r%len(ahead)]
	out    *Results
	names  []string // of Spec.Vars, taken before any worker starts
	accums []*stats.Accumulator
}

func newFold(spec *Spec) *fold {
	f := &fold{spec: spec, root: rng.New(spec.Seed),
		out:    &Results{Reps: spec.Reps, FirstRep: spec.FirstRep},
		names:  make([]string, len(spec.Vars)),
		accums: make([]*stats.Accumulator, len(spec.Vars))}
	for i, v := range spec.Vars {
		f.names[i] = v.Name()
		f.accums[i] = &stats.Accumulator{}
	}
	if spec.KeepPerRep {
		f.out.PerRep = make([][]float64, len(spec.Vars))
		for i := range f.out.PerRep {
			row := make([]float64, spec.Reps)
			for j := range row {
				row[j] = math.NaN()
			}
			f.out.PerRep[i] = row
		}
	}
	return f
}

// add records the outcome of batch-local replication rep and folds every
// replication the cursor can now reach. It returns the spec's Results once,
// to the call that folds the last replication, and nil otherwise.
func (f *fold) add(rep int, o outcome) *Results {
	o.done = true
	f.mu.Lock()
	defer f.mu.Unlock()
	if rep != f.next {
		f.park(rep, o)
		return nil
	}
	for {
		f.foldNext(o)
		f.next++
		if len(f.ahead) == 0 {
			break
		}
		slot := &f.ahead[f.next%len(f.ahead)]
		if !slot.done {
			break
		}
		o, *slot = *slot, outcome{}
	}
	if f.next < f.spec.Reps {
		return nil
	}
	f.out.Failed = len(f.out.Failures)
	f.out.setEstimates(f.names, f.accums)
	if f.spec.KeepPerRep {
		f.out.accums = f.accums
	}
	return f.out
}

// park stores the outcome of a replication ahead of the cursor, growing
// the ring when rep falls beyond it.
func (f *fold) park(rep int, o outcome) {
	if n := len(f.ahead); rep-f.next >= n {
		grown := make([]outcome, max(8, 2*(rep-f.next+1)))
		for r := f.next + 1; r < f.next+n; r++ {
			grown[r%len(grown)] = f.ahead[r%n]
		}
		f.ahead = grown
	}
	f.ahead[rep%len(f.ahead)] = o
}

// foldNext aggregates the outcome of replication f.next.
func (f *fold) foldNext(o outcome) {
	out, j := f.out, f.next
	switch {
	case o.ferr != nil:
		out.Failures = append(out.Failures, *o.ferr)
		return
	case o.vals == nil:
		out.Skipped++
		return
	}
	out.Completed++
	out.TotalFirings += o.firings
	for i, xs := range o.vals {
		if out.PerRep != nil && len(xs) > 0 {
			sum := 0.0
			for _, x := range xs {
				sum += x
			}
			out.PerRep[i][j] = sum / float64(len(xs))
		}
		for _, x := range xs {
			f.accums[i].Add(x)
		}
	}
}

// newSpecEngine builds an engine configured for spec's sampling mode and
// invariants.
func newSpecEngine(spec *Spec) *Engine {
	eng := NewEngine(spec.Model, spec.Validate)
	eng.UseCRN(spec.CRN)
	eng.SetInvariants(spec.Invariants, spec.InvariantEvery)
	return eng
}

// RunFlatFunc is RunFlat with progress hooks: per-unit ticks and per-spec
// completion callbacks fire while the pool is still working through the
// remaining specs, which is what lets a long sweep stream results point by
// point instead of reporting only at the end. Results are identical to
// RunFlat's.
func RunFlatFunc(ctx context.Context, specs []Spec, workers int, hooks FlatHooks) []FlatResult {
	out := make([]FlatResult, len(specs))
	folds := make([]*fold, len(specs))
	// starts[i] is the first flat unit index of spec i; invalid specs own an
	// empty range. The owning spec of unit u is the last i with starts[i] <= u.
	starts := make([]int, len(specs)+1)
	for si := range specs {
		starts[si+1] = starts[si]
		if err := specs[si].validate(); err != nil {
			out[si].Err = err
			if hooks.OnSpec != nil {
				hooks.OnSpec(si, out[si])
			}
			continue
		}
		folds[si] = newFold(&specs[si])
		starts[si+1] += specs[si].Reps
	}
	total := starts[len(specs)]
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One engine per spec per worker, built lazily: specs can differ
			// in model, CRN mode, and invariants.
			engines := make([]*Engine, len(specs))
			for {
				u := int(next.Add(1)) - 1
				if u >= total {
					return
				}
				si := sort.SearchInts(starts, u+1) - 1
				f := folds[si]
				rep := u - starts[si]
				var o outcome
				if ctx.Err() == nil {
					// Attempt the unit; after cancellation the stream just
					// drains, and unattempted units fold as skipped.
					if engines[si] == nil {
						engines[si] = newSpecEngine(f.spec)
					}
					abs := f.spec.FirstRep + rep
					var ferr *ReplicationError
					o.vals, o.firings, ferr = runReplication(ctx, engines[si], f.spec, f.root.Derive(uint64(abs)), abs)
					if ferr != nil && !errors.Is(ferr.Err, context.Canceled) {
						o.ferr = ferr
					}
				}
				if hooks.OnRep != nil {
					hooks.OnRep(si)
				}
				if res := f.add(rep, o); res != nil {
					// Only this worker sees res; out[si] is read by the
					// caller after wg.Wait.
					out[si] = FlatResult{Results: res, Err: finishErr(ctx, f.spec, res)}
					if hooks.OnSpec != nil {
						hooks.OnSpec(si, out[si])
					}
				}
			}
		}()
	}
	wg.Wait()

	// Re-evaluate every valid spec's error against the final context state:
	// eager snapshots report a spec that finished before a later cancellation
	// with a nil error, but the returned slice keeps RunFlat's historical
	// contract that cancellation surfaces as ctx.Err() on every valid spec.
	for si := range specs {
		if folds[si] == nil {
			continue // invalid spec; Err already set
		}
		out[si].Err = finishErr(ctx, folds[si].spec, out[si].Results)
	}
	return out
}
