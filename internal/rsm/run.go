// Package rsm is a live message-passing replicated service — the executable
// counterpart of the ITUA model. Replicas of the measured application run
// Bracha's reliable broadcast (internal/groupcomm) over an in-process
// discrete-event transport with seeded latency, loss, exclusion, and
// partition support, while the fault injector (internal/rsm/inject) drives
// the direct simulator's own attack process (ituadirect.Process) against
// them through its lifecycle hooks: corruptions swap a replica's logic for
// a Byzantine behavior script, convictions quarantine it, exclusions cut
// its host off the transport, and recoveries bring fresh replicas up. A synthetic client probes the service after every injected
// event; a probe fails when fewer than ⌈(n+1)/2⌉ members answer with one
// value (unavailability) and is Byzantine when a wrong value reaches that
// threshold (unreliability). The resulting empirical measures estimate the
// same quantities as the SAN model, the direct simulator, and the
// uniformization solver — the fourth arm of integrity.CrossCheck.
package rsm

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ituaval/internal/core"
	"ituaval/internal/groupcomm"
	"ituaval/internal/rng"
	"ituaval/internal/rsm/inject"
	"ituaval/internal/stats"
)

// meanLatency is the mean one-way transport latency in hours. The
// transport clock is decoupled from the model clock: probes are
// instantaneous in model time.
const meanLatency = 1e-6

// Spec configures one live-validation run. The transport is reliable
// (replica-to-replica loss would make the live service strictly weaker
// than the model's reliable-channel assumption) and the adversary keeps
// its worst-case scheduling privilege, as the model's failure predicate
// assumes.
type Spec struct {
	// Params is the ITUA configuration (topology, rates, policy).
	Params core.Params
	// T is the study horizon in hours (zero selects 6, the paper's
	// interval; must be finite and non-negative).
	T float64
	// Reps is the number of independent replications (default 200).
	Reps int
	// Seed is the root seed; replication i derives stream Seed→i.
	Seed uint64
	// Workers bounds parallelism (0 = GOMAXPROCS). Results are aggregated
	// in replication order, so the worker count never changes the output.
	Workers int

	// MaxEvents bounds injected events per replication (default 1<<20);
	// exceeding it records the replication as failed ("event-budget"),
	// mirroring the simulation engine's firing budget.
	MaxEvents int
	// RepDeadline bounds one replication's wall-clock time (default 30s);
	// exceeding it records a "deadline" failure instead of hanging the run.
	RepDeadline time.Duration
	// MaxFailureFrac is the tolerated fraction of failed replications
	// before the whole run errors out. Zero selects 0.05; a negative value
	// tolerates no failures at all, as in sim.Spec.
	MaxFailureFrac float64

	// Behavior maps a corrupted replica slot to its Byzantine script
	// (default: groupcomm.Collude, the worst-case adversary whose live
	// effect coincides with the model's one-third predicate). Weaker
	// behaviors (Silent, RandomLiar) yield live measures at or below the
	// model's — the model is then a bound, not an equality.
	Behavior func(slot int, rs *rng.Stream) groupcomm.Behavior
}

func (s *Spec) fill() {
	if s.T == 0 {
		s.T = 6
	}
	if s.Reps <= 0 {
		s.Reps = 200
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	if s.MaxEvents <= 0 {
		s.MaxEvents = 1 << 20
	}
	if s.RepDeadline <= 0 {
		s.RepDeadline = 30 * time.Second
	}
	switch {
	case s.MaxFailureFrac < 0:
		s.MaxFailureFrac = 0
	case s.MaxFailureFrac == 0:
		s.MaxFailureFrac = 0.05
	}
}

// Result aggregates a run's live and oracle measures.
type Result struct {
	Reps   int // replications contributing measures
	Failed int
	// Failures counts failed replications by kind ("deadline",
	// "event-budget", "panic"), the PR-1 watchdog taxonomy: failures are
	// recorded and bounded, never hangs.
	Failures map[string]int

	Probes int64 // client probes issued across all replications
	// Divergences counts probe outcomes disagreeing with the model oracle,
	// plus final unreliability latches disagreeing with the model's
	// Byzantine flag — except when that flag latched while a partition
	// isolated the group (inject.ByzantineBlocked), where the model is a
	// documented upper bound rather than an equality.
	Divergences int64

	// Live measures: empirical unavailability (fraction of the interval
	// the service failed the response threshold), unreliability (a wrong
	// answer was certified by the horizon), and the injector's
	// excluded-domain fraction at the horizon.
	Unavail, Unrel, FracExcl stats.Accumulator

	// Oracle measures: the model's improper-service predicate evaluated on
	// the injector state over the same trajectories. Live and oracle means
	// coincide (up to Divergences) under the default adversary.
	PredUnavail, PredUnrel stats.Accumulator

	// Panic is the first "panic" failure — the lowest replication index,
	// so the same at any worker count — with its value and stack; nil when
	// no replication panicked. It is diagnostics, never serialized.
	Panic *RepPanic `json:"-"`
}

// RepPanic is a panic recovered from one replication.
type RepPanic struct {
	Rep   int    // replication index
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack at recovery
}

type repOut struct {
	fail                string    // failure kind, "" = ok
	panic               *RepPanic // set with fail == "panic"
	unavail, fracExcl   float64
	wrong               bool
	predUnavail         float64
	predWrong           bool
	probes, divergences int64
}

// Run executes the live validation: Reps independent replications of the
// attack process against freshly booted replica groups, aggregated in
// replication order (deterministic for a fixed Seed regardless of Workers).
func Run(ctx context.Context, spec Spec) (*Result, error) {
	if math.IsNaN(spec.T) || math.IsInf(spec.T, 0) || spec.T < 0 {
		return nil, fmt.Errorf("rsm: horizon T must be finite and non-negative, got %v", spec.T)
	}
	spec.fill()
	if err := spec.Params.Validate(); err != nil {
		return nil, fmt.Errorf("rsm: %w", err)
	}
	root := rng.New(spec.Seed)
	outs := make([]repOut, spec.Reps)
	reps := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < spec.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range reps {
				outs[rep] = runRep(ctx, spec, rep, root.Derive(uint64(rep)))
			}
		}()
	}
	for rep := 0; rep < spec.Reps; rep++ {
		reps <- rep
	}
	close(reps)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{Failures: make(map[string]int)}
	for _, o := range outs {
		res.Probes += o.probes
		res.Divergences += o.divergences
		if o.fail != "" {
			res.Failed++
			res.Failures[o.fail]++
			if res.Panic == nil {
				res.Panic = o.panic
			}
			continue
		}
		res.Reps++
		res.Unavail.Add(o.unavail)
		res.Unrel.Add(b01(o.wrong))
		res.FracExcl.Add(o.fracExcl)
		res.PredUnavail.Add(o.predUnavail)
		res.PredUnrel.Add(b01(o.predWrong))
	}
	if frac := float64(res.Failed) / float64(spec.Reps); frac > spec.MaxFailureFrac {
		err := fmt.Errorf("rsm: %d of %d replications failed (%v), above the %.0f%% budget",
			res.Failed, spec.Reps, res.Failures, 100*spec.MaxFailureFrac)
		if p := res.Panic; p != nil {
			err = fmt.Errorf("%w; replication %d panicked: %v", err, p.Rep, p.Value)
		}
		return res, err
	}
	return res, nil
}

func b01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// runRep boots one replica group, drives the attack process to the horizon,
// and probes the live service after every injected event. A panic, event
// budget, or wall deadline degrades to a recorded failure; a panic keeps its
// value and stack.
func runRep(ctx context.Context, spec Spec, rep int, stream *rng.Stream) (out repOut) {
	defer func() {
		if r := recover(); r != nil {
			out = repOut{fail: "panic", panic: &RepPanic{Rep: rep, Value: r, Stack: debug.Stack()}}
		}
	}()
	start := time.Now()

	tr := NewTransport(stream.RoleNamed("transport"), meanLatency, 0)
	cl := newCluster(stream.RoleNamed("cluster"), tr, spec.Behavior)
	proc, err := inject.New(spec.Params, stream.RoleNamed("inject"), inject.Hooks{
		StartReplica: func(a, slot, host int) {
			if a == 0 {
				cl.start(slot, host)
			}
		},
		CorruptReplica: func(a, slot int) {
			if a == 0 {
				cl.corrupt(slot)
			}
		},
		ConvictReplica: func(a, slot int) {
			if a == 0 {
				cl.convict(slot)
			}
		},
		KillReplica: func(a, slot int) {
			if a == 0 {
				cl.kill(slot)
			}
		},
		ExcludeHost: func(host int) { tr.ExcludeHost(host) },
		Partition: func(da, db int) {
			H := spec.Params.HostsPerDomain
			tr.SetPartition(func(from, to int) bool {
				fa, ta := from/H, to/H
				return (fa == da && ta == db) || (fa == db && ta == da)
			})
		},
		Heal: func() { tr.SetPartition(nil) },
	})
	if err != nil {
		panic(err) // Params were validated by Run; this is a programming error
	}

	T := spec.T
	now := 0.0
	unavailTime, predUnavailTime := 0.0, 0.0
	wrong := false

	// probe measures the post-event service status and checks it against
	// the model oracle.
	improper, predImproper := false, false
	probe := func() {
		outcome := cl.Probe()
		out.probes++
		improper = outcome != ProbeCorrect
		if outcome == ProbeWrong {
			wrong = true
		}
		predImproper = proc.Improper(0)
		if improper != predImproper {
			out.divergences++
		}
	}
	probe() // initial state

	for events := 0; ; events++ {
		if events >= spec.MaxEvents {
			return repOut{fail: "event-budget", probes: out.probes, divergences: out.divergences}
		}
		if events&63 == 0 {
			if time.Since(start) > spec.RepDeadline {
				return repOut{fail: "deadline", probes: out.probes, divergences: out.divergences}
			}
			if ctx.Err() != nil {
				return repOut{fail: "deadline", probes: out.probes, divergences: out.divergences}
			}
		}
		dt, fired := proc.Step(T - now)
		if improper {
			unavailTime += dt
		}
		if predImproper {
			predUnavailTime += dt
		}
		now += dt
		if !fired {
			break // horizon reached, or absorbed with nothing enabled
		}
		probe()
	}
	// The latch comparison excuses one environment-induced asymmetry: when
	// the model's Byzantine flag latched while the partition isolated the
	// group, the colluders could not actually reach the correct replicas to
	// certify a forged answer, so the live service staying reliable is the
	// model bounding the measurement from above, not a divergence.
	predWrong := proc.Byzantine(0)
	if wrong != predWrong && !(predWrong && proc.ByzantineBlocked(0)) {
		out.divergences++
	}
	out.unavail = unavailTime / T
	out.predUnavail = predUnavailTime / T
	out.wrong = wrong
	out.predWrong = predWrong
	out.fracExcl = proc.FracDomainsExcluded()
	return out
}
