package precision

import (
	"context"
	"errors"
	"fmt"

	"ituaval/internal/sim"
	"ituaval/internal/stats"
)

// level is the confidence level of the paired-t intervals, matching the
// 95% half-widths that targets are stated in.
const level = 0.95

// Opts configures a paired comparison. Its paired-t intervals are at the
// 95% level.
type Opts struct {
	// Targets, when non-empty, turns the comparison sequential: batches of
	// replications double the cumulative count until every listed
	// measure's *delta* meets its precision, bounded by MaxReps. Empty runs
	// a single batch of specA.Reps replications.
	Targets []Target
	// InitialReps is the first batch of the sequential schedule and
	// MaxReps bounds its cumulative replication count, which doubles
	// between precision checks. Both are required with Targets
	// (InitialReps >= 1, MaxReps >= InitialReps) and ignored without.
	InitialReps int
	MaxReps     int
}

// Measure is the paired comparison of one reward variable shared by the two
// configurations: the paired-t summary of the per-replication deltas
// (A − B), plus both marginal estimates for context.
type Measure struct {
	Name string
	stats.PairedResult
	// A and B are the marginal estimates of the two configurations.
	A, B sim.Estimate
}

func (m Measure) String() string {
	return fmt.Sprintf("Δ%s = %.6g ± %.2g (n=%d, corr %.2f, VRF %.1f)",
		m.Name, m.Delta, m.HalfWidth, m.N, m.Corr, m.VRF)
}

// Comparison is the outcome of Compare.
type Comparison struct {
	// Measures, in specA.Vars order, covers every variable name the two
	// specs share.
	Measures []Measure
	// A and B are the full per-configuration results.
	A, B *sim.Results
	// Reps is the number of replications run per configuration.
	Reps int
	// Batches is the number of batches executed (1 without Targets).
	Batches int
	// Met reports whether every requested delta target was satisfied; it is
	// true when no targets were requested.
	Met bool
}

// Get returns the named measure.
func (c *Comparison) Get(name string) (Measure, bool) {
	for _, m := range c.Measures {
		if m.Name == name {
			return m, true
		}
	}
	return Measure{}, false
}

// Compare estimates the difference between two model configurations on
// common random numbers. Both specs are forced into CRN mode with
// per-replication retention, and specB is re-seeded from specA so
// replication i of either configuration consumes the identical randomness
// for identical stochastic roles; the per-replication deltas then admit a
// paired-t interval whose variance shrinks by the measures' CRN-induced
// correlation (reported as VRF, the factor versus independent sampling at
// equal replications).
//
// Without opts.Targets a single batch of specA.Reps replications runs per
// configuration. With targets the comparison is sequential: batches double
// the cumulative count until every listed measure's delta reaches its
// half-width target or MaxReps is hit (Met reports which). Either way the
// result is bit-identical for a fixed seed across worker counts.
//
// The two specs may differ in model structure; variables are matched by
// name. On a partial failure
// (cancellation, failure tolerance exceeded) the comparison built so far is
// returned alongside the error.
func Compare(ctx context.Context, specA, specB sim.Spec, opts Opts) (*Comparison, error) {
	specA.CRN, specB.CRN = true, true
	specA.KeepPerRep, specB.KeepPerRep = true, true
	specB.Seed = specA.Seed
	specB.FirstRep = specA.FirstRep

	// Variables are matched by name; the shared set in specA order defines
	// the measures.
	idxA := make(map[string]int, len(specA.Vars))
	for i, v := range specA.Vars {
		idxA[v.Name()] = i
	}
	idxB := make(map[string]int, len(specB.Vars))
	for i, v := range specB.Vars {
		idxB[v.Name()] = i
	}
	var shared []string
	known := make(map[string]bool)
	for _, v := range specA.Vars {
		if _, ok := idxB[v.Name()]; ok {
			shared = append(shared, v.Name())
			known[v.Name()] = true
		}
	}
	if len(shared) == 0 {
		return nil, errors.New("precision: the two specs share no variable names")
	}

	sequential := len(opts.Targets) > 0
	var initial, max int
	if sequential {
		if err := validateTargets(opts.Targets, known); err != nil {
			return nil, err
		}
		initial, max = opts.InitialReps, opts.MaxReps
		if initial < 1 {
			return nil, fmt.Errorf("precision: InitialReps must be >= 1, got %d", initial)
		}
		if max < initial {
			return nil, fmt.Errorf("precision: MaxReps %d below the initial batch %d", max, initial)
		}
	} else {
		if specA.Reps < 1 {
			return nil, fmt.Errorf("precision: specA.Reps must be >= 1, got %d", specA.Reps)
		}
		initial, max = specA.Reps, specA.Reps
	}

	out := &Comparison{}
	total := 0
	for total < max {
		reps := NextBatch(total, initial, max)
		first := specA.FirstRep + total
		if err := runBatches(ctx, specA, specB, first, reps, &out.A, &out.B); err != nil {
			out.finish(shared, idxA, idxB)
			return out, err
		}
		total += reps
		out.Reps = total
		out.Batches++
		out.finish(shared, idxA, idxB)
		if sequential && deltaTargetsMet(opts.Targets, out) {
			out.Met = true
			return out, nil
		}
	}
	out.Met = !sequential
	return out, nil
}

// runBatches runs one batch of both arms at the given absolute offset on a
// single shared worker pool (sim.RunFlat) and merges each into its
// accumulator. Sharing the pool halves the per-batch synchronization
// barriers without changing a bit of the result: both arms retain
// per-replication values, so each aggregates in replication order no matter
// how the pool interleaves them. On error the completed work of both arms is
// still merged, so the caller's partial comparison stays paired.
func runBatches(ctx context.Context, specA, specB sim.Spec, first, reps int, accA, accB **sim.Results) error {
	specA.FirstRep, specA.Reps = first, reps
	specB.FirstRep, specB.Reps = first, reps
	frs := sim.RunFlat(ctx, []sim.Spec{specA, specB}, specA.Workers)
	var firstErr error
	for i, acc := range []**sim.Results{accA, accB} {
		fr := frs[i]
		err := fr.Err
		if fr.Results != nil {
			if *acc == nil {
				*acc = fr.Results
			} else if merr := (*acc).Merge(fr.Results); merr != nil && err == nil {
				err = merr
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// finish recomputes the paired measures from the accumulated results.
func (c *Comparison) finish(shared []string, idxA, idxB map[string]int) {
	c.Measures = c.Measures[:0]
	if c.A == nil || c.B == nil {
		return
	}
	for _, name := range shared {
		m := Measure{Name: name}
		m.A, _ = c.A.Get(name)
		m.B, _ = c.B.Get(name)
		if pr, err := stats.PairedT(c.A.PerRep[idxA[name]], c.B.PerRep[idxB[name]], level); err == nil {
			m.PairedResult = pr
		} else {
			m.Level = level
		}
		c.Measures = append(c.Measures, m)
	}
}

// deltaTargetsMet checks every target against its measure's paired delta.
func deltaTargetsMet(targets []Target, c *Comparison) bool {
	for _, t := range targets {
		m, ok := c.Get(t.Var)
		if !ok || m.N < 2 || !stats.PrecisionMet(m.Delta, m.HalfWidth, t.RelHW, t.AbsHW) {
			return false
		}
	}
	return true
}
