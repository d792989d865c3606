// Command ituaval runs a single ITUA validation experiment: it builds the
// composed SAN model for the given topology and management policy,
// simulates it with the requested number of replications, and prints every
// intrusion-tolerance measure of the paper with 95% confidence intervals.
//
// Execution is fault tolerant: Ctrl-C (SIGINT) or SIGTERM stops the study
// gracefully and prints the estimates from the replications that already
// completed, marked PARTIAL. A replication that panics, hangs past
// -rep-deadline, or exhausts its firing budget is recorded (with the seed
// that reproduces it) and the rest of the study continues; use -replay to
// re-execute one recorded replication under a debugger. With -invariants
// the run carries the model's conservation-law monitors, so a corrupted
// trajectory aborts with a classified failure instead of skewing estimates.
//
// -replay exits with a code identifying the failure class (see
// sim.FailureKind.ExitCode): 10 model error, 11 panic, 12 deadline, 13
// firing budget, 14 invariant violation, 15 livelock; 0 means the
// replication completed cleanly.
//
// -exact additionally solves the configuration's CTMC by uniformization
// (internal/exact) and prints the numerically exact measures next to the
// simulated estimates. The chain is symmetry-lumped by default — hosts
// within a domain and whole domains are exchangeable, so multi-host
// topologies stay generateable — and -no-lump forces the full chain.
//
// -live additionally runs the live replicated service (internal/rsm): the
// same attack process is injected into a real message-passing replica group
// of application 0 and a synthetic client measures the availability and
// reliability of the service it actually receives, printed next to the
// model's estimates together with the probe-vs-oracle divergence count.
//
// -cpuprofile, -memprofile, and -trace write pprof CPU/heap profiles and a
// runtime execution trace for the whole run, flushed on every exit path.
//
// Example:
//
//	ituaval -domains 10 -hosts 3 -apps 4 -reps 7 -policy domain \
//	        -spread 4 -mult 5 -horizon 10 -sims 4000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"ituaval/internal/core"
	"ituaval/internal/exact"
	"ituaval/internal/integrity"
	"ituaval/internal/prof"
	"ituaval/internal/reward"
	"ituaval/internal/rsm"
	"ituaval/internal/sim"
	"ituaval/internal/stats"
)

// main delegates to run so deferred cleanup — notably flushing the
// profiling collectors — executes before the process exits.
func main() {
	os.Exit(run())
}

func run() int {
	var (
		domains = flag.Int("domains", 12, "number of security domains")
		hosts   = flag.Int("hosts", 1, "hosts per security domain")
		apps    = flag.Int("apps", 4, "number of replicated applications")
		reps    = flag.Int("reps", 7, "replicas per application")
		policy  = flag.String("policy", "domain", `management algorithm: "domain" or "host"`)
		horizon = flag.Float64("horizon", 5, "simulation horizon in hours")
		sims    = flag.Int("sims", 2000, "number of simulation replications")
		seed    = flag.Uint64("seed", 1, "root random seed")

		attackRate = flag.Float64("attack-rate", 3, "cumulative successful-attack rate (1/h)")
		falseRate  = flag.Float64("false-rate", 2, "cumulative false-alarm rate (1/h)")
		spread     = flag.Float64("spread", 1, "intra-domain attack spread rate (1/h)")
		mult       = flag.Float64("mult", 2, "corruption multiplier for replicas/managers on corrupt hosts")
		convict    = flag.Bool("exclude-on-conviction", false, "exclude the domain/host on every replica conviction")
		validate   = flag.Bool("validate", false, "run the engine in dependency-validation mode (slow)")

		live     = flag.Bool("live", false, "also run the live replicated service under fault injection and print its measured availability/reliability next to the model's")
		liveSims = flag.Int("live-sims", 0, "live replications with -live (0 = -sims)")

		exactArm  = flag.Bool("exact", false, "also solve the configuration's CTMC numerically (symmetry-lumped uniformization, internal/exact) and print the exact measures next to the simulated estimates")
		exactMax  = flag.Int("exact-max-states", 0, "state cap for -exact generation (0 = default 1<<20)")
		exactFull = flag.Bool("no-lump", false, "with -exact, generate the full chain instead of the symmetry-lumped quotient")

		repDeadline = flag.Duration("rep-deadline", 0, "wall-clock watchdog per replication (0 = none)")
		maxFailFrac = flag.Float64("max-failure-frac", 0, "tolerated fraction of failed replications (0 = default 5%, negative = none)")
		replay      = flag.Int("replay", -1, "re-execute only the given replication index and report its outcome")
		invariants  = flag.Bool("invariants", false, "monitor the model's conservation laws during every replication (violations abort the replication, classified)")
		invEvery    = flag.Int64("invariants-every", 0, "check invariants every N events (0 = engine default)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceFile  = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile, *traceFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ituaval: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "ituaval: %v\n", err)
		}
	}()

	p := core.DefaultParams()
	p.NumDomains = *domains
	p.HostsPerDomain = *hosts
	p.NumApps = *apps
	p.RepsPerApp = *reps
	p.TotalAttackRate = *attackRate
	p.TotalFalseAlarmRate = *falseRate
	p.DomainSpreadRate = *spread
	p.CorruptionMult = *mult
	p.ExcludeOnReplicaConviction = *convict
	switch *policy {
	case "domain":
		p.Policy = core.DomainExclusion
	case "host":
		p.Policy = core.HostExclusion
	default:
		fmt.Fprintf(os.Stderr, "ituaval: unknown policy %q\n", *policy)
		return 2
	}

	m, err := core.Build(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ituaval: %v\n", err)
		return 1
	}
	T := *horizon
	vars := []reward.Var{
		m.Unavailability("unavailability", 0, 0, T),
		m.Unreliability("unreliability (Byzantine fault by T)", 0, T),
		m.ImproperEver("improper service ever by T", 0, T),
		m.ReplicasRunning("replicas running at T", 0, T),
		m.LoadPerHost("load per live host at T", T),
		m.FracDomainsExcluded("fraction of domains excluded at T", T),
		m.FracCorruptHostsAtExclusion("fraction of corrupt hosts in an excluded domain", T),
		m.DomainExclusions("exclusion events in [0,T]", T),
	}
	spec := sim.Spec{
		Model: m.SAN, Until: T, Reps: *sims, Seed: *seed,
		Vars: vars, Validate: *validate,
		RepDeadline: *repDeadline, MaxFailureFrac: *maxFailFrac,
	}
	if *invariants {
		spec.Invariants = integrity.ITUAInvariants(m)
		spec.InvariantEvery = *invEvery
	}

	if *replay >= 0 {
		// Reproduce a single replication from its logged index + root seed;
		// the exit code identifies the failure class so scripts can triage.
		if ferr := sim.Replay(spec, *replay); ferr != nil {
			fmt.Printf("replication %d (seed %d): %s failure\n%v\n", ferr.Rep, ferr.Seed, ferr.Kind, ferr)
			if ferr.Stack != "" {
				fmt.Printf("\n%s\n", ferr.Stack)
			}
			return ferr.Kind.ExitCode()
		}
		fmt.Printf("replication %d (seed %d): completed cleanly\n", *replay, *seed)
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := sim.RunContext(ctx, spec)
	interrupted := err != nil && errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		// Over-threshold failures: report the error but still print any
		// surviving estimates below.
		fmt.Fprintf(os.Stderr, "ituaval: %v\n", err)
		if res == nil || res.Completed == 0 {
			return 1
		}
	}
	if res == nil {
		fmt.Fprintf(os.Stderr, "ituaval: %v\n", err)
		return 1
	}

	fmt.Printf("%s\n", m.SAN.Summary())
	fmt.Printf("policy=%s horizon=%gh replications=%d completed=%d failed=%d skipped=%d firings=%d\n",
		p.Policy, T, res.Reps, res.Completed, res.Failed, res.Skipped, res.TotalFirings)
	if interrupted {
		fmt.Printf("\n*** PARTIAL results: interrupted after %d of %d replications ***\n",
			res.Completed, res.Reps)
	}
	fmt.Println()
	for _, v := range vars {
		e := res.MustGet(v.Name())
		fmt.Printf("  %-50s %10.5f ± %.5f  (n=%d)\n", e.Name, e.Mean, e.HalfWidth95, e.N)
	}
	if res.Failed > 0 {
		fmt.Printf("\n%d replication(s) failed; estimates aggregate the %d survivors (selection bias possible):\n",
			res.Failed, res.Completed)
		for _, f := range res.Failures {
			fmt.Printf("  rep %-6d %-13s %v\n", f.Rep, f.Kind, &f)
		}
		fmt.Printf("reproduce one with: ituaval [same flags] -replay <rep>\n")
	}

	if *exactArm && !interrupted {
		// Exact arm: the symmetry-lumped (or, with -no-lump, full) CTMC
		// solved by uniformization; no sampling error, so the simulated
		// intervals above should bracket these values.
		s, err := exact.NewSolver(p, exact.Options{
			MaxStates: *exactMax, Workers: 0, NoLump: *exactFull,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ituaval: exact arm: %v\n", err)
			return 1
		}
		kind := "full"
		if s.Lumped {
			kind = "symmetry-lumped"
		}
		fmt.Printf("\nexact uniformization (%s chain: %d states, %d transitions):\n",
			kind, s.C.NumStates(), s.C.NumTransitions())
		for _, ex := range []struct {
			name string
			f    func() (float64, error)
		}{
			{"exact unavailability", func() (float64, error) { return s.Unavailability(0, T) }},
			{"exact unreliability (Byzantine fault by T)", func() (float64, error) { return s.Unreliability(0, T) }},
			{"exact fraction of domains excluded at T", func() (float64, error) { return s.FracDomainsExcluded(T) }},
		} {
			v, err := ex.f()
			if err != nil {
				fmt.Fprintf(os.Stderr, "ituaval: exact arm: %v\n", err)
				return 1
			}
			fmt.Printf("  %-50s %10.5f\n", ex.name, v)
		}
	}

	if *live && !interrupted {
		// Live arm: the same attack process injected into a real replica
		// group (application 0), measured by a synthetic client.
		n := *liveSims
		if n <= 0 {
			n = *sims
		}
		lres, err := rsm.Run(ctx, rsm.Spec{
			Params: p, T: T, Reps: n, Seed: *seed + 2,
			RepDeadline:    *repDeadline,
			MaxFailureFrac: *maxFailFrac,
		})
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "ituaval: live service interrupted")
				return 130
			}
			fmt.Fprintf(os.Stderr, "ituaval: live service: %v\n", err)
			return 1
		}
		fmt.Printf("\nlive replicated service (app 0, %d replications, %d client probes):\n", lres.Reps, lres.Probes)
		for _, m := range []struct {
			name string
			acc  *stats.Accumulator
		}{
			{"live unavailability", &lres.Unavail},
			{"live unreliability (wrong answer certified)", &lres.Unrel},
			{"live fraction of domains excluded at T", &lres.FracExcl},
		} {
			fmt.Printf("  %-50s %10.5f ± %.5f  (n=%d)\n",
				m.name, m.acc.Mean(), m.acc.HalfWidth(0.95), int64(lres.Reps))
		}
		fmt.Printf("  %-50s %10d\n", "probe-vs-model-oracle divergences (expect 0)", lres.Divergences)
		if lres.Failed > 0 {
			fmt.Printf("  %d live replication(s) failed: %v\n", lres.Failed, lres.Failures)
		}
	}
	if interrupted {
		return 130
	}
	return 0
}
