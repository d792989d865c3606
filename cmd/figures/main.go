// Command figures regenerates the evaluation figures of Singh, Cukier &
// Sanders, "Probabilistic Validation of an Intrusion-Tolerant Replication
// System" (DSN 2003), plus the cross-validation and ablation experiments of
// this reproduction.
//
// Usage:
//
//	figures [-reps N] [-seed S] [-precision R] [-analytic] [-live] [-faults] [-csv dir] [-checkpoint file] [-resume] [experiment ...]
//
// With no experiment arguments every registered experiment runs. Text
// tables go to stdout; -csv additionally writes one CSV file per
// experiment into the given directory.
//
// -precision R switches every sweep point from a fixed replication count
// to sequential stopping: replications grow geometrically from -reps until
// each measure's 95% confidence half-width falls below R times its mean
// (combinable with -abs-precision for an absolute target), bounded by
// -max-reps. The experiment fig5-paired runs study 3 with both exclusion
// policies on common random numbers and reports host-minus-domain deltas
// with paired-t intervals, crossover locations, and the observed
// variance-reduction factors; under -precision its targets apply to the
// deltas.
//
// -analytic adds the exact-vs-simulated study (experiment id "analytic"):
// on a two-domain, one-host-per-domain configuration every Figure-5 spread
// rate is evaluated both by simulation and by numerically exact
// uniformization of the generated CTMC (internal/exact), and the figure
// shows the two series side by side. It is excluded from the default
// experiment set because each sweep point solves a chain of a few hundred
// thousand states.
//
// -live adds the model-vs-measurement study (experiment id "live"): the
// same small configuration is evaluated both by simulating the SAN model
// and by running a real message-passing replica group under the model's
// attack process (internal/rsm), a synthetic client measuring the service
// it actually receives. Also excluded from the default set because each
// sweep point executes thousands of live agreement-protocol runs.
//
// -faults adds the environment-fault study (experiment id "faults"): a
// partition-rate x campaign-rate grid on the same small configuration,
// with network partitions, correlated attack campaigns, and a bounded
// repair crew active, cross-validated SAN vs direct simulation vs live
// replica group, with an exact uniformization anchor at one grid point.
// Excluded from the default set for the same cost reasons as -live.
//
// Long sweeps are fault tolerant: with -checkpoint, every completed sweep
// point is persisted atomically, Ctrl-C (SIGINT) or SIGTERM stops the run
// gracefully, and a later invocation with -resume skips the completed
// points and produces estimates bit-identical to an uninterrupted run
// (replication seeds are derived per point and per replication from the
// root seed). Replications that panic or hang past -rep-deadline are
// recorded with their reproducing seed and the sweep continues, as long as
// the per-point failure fraction stays under -max-failure-frac.
//
// -cpuprofile, -memprofile, and -trace write pprof CPU/heap profiles and a
// runtime execution trace for the whole run, flushed on every exit path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ituaval/internal/prof"
	"ituaval/internal/study"
)

// main delegates to run so deferred cleanup — notably flushing the
// profiling collectors — executes before the process exits.
func main() {
	os.Exit(run())
}

func run() int {
	reps := flag.Int("reps", 2000, "replications per sweep point")
	seed := flag.Uint64("seed", 1, "root random seed")
	workers := flag.Int("workers", 0, "parallel workers (0 = all cores)")
	csvDir := flag.String("csv", "", "directory to write per-experiment CSV files")
	ckptPath := flag.String("checkpoint", "", "file to persist completed sweep points (enables resumable runs)")
	resume := flag.Bool("resume", false, "skip sweep points already in the checkpoint file (implies -checkpoint figures.ckpt.json if unset)")
	repDeadline := flag.Duration("rep-deadline", 0, "wall-clock watchdog per replication (0 = none)")
	maxFailFrac := flag.Float64("max-failure-frac", 0, "tolerated fraction of failed replications per point (0 = default 5%, negative = none)")
	relHW := flag.Float64("precision", 0, "relative 95% half-width target per measure; grows replications from -reps until met (0 = fixed -reps)")
	absHW := flag.Float64("abs-precision", 0, "absolute 95% half-width target per measure (0 = none)")
	maxReps := flag.Int("max-reps", 0, "replication cap per sweep point in precision mode (0 = 16x -reps)")
	analytic := flag.Bool("analytic", false, "include the analytic study: exact (uniformization) vs simulated measures on a small configuration")
	live := flag.Bool("live", false, "include the live study: SAN model vs a real fault-injected replica group on a small configuration")
	faults := flag.Bool("faults", false, "include the environment-fault study: partitions x campaigns x repair crew, SAN vs direct vs live with an exact anchor")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	list := flag.Bool("list", false, "list the registered experiments with descriptions and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: %s [flags] [experiment ...]\nexperiments: %s\nflags:\n",
			os.Args[0], strings.Join(study.IDs(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		printExperimentList(os.Stdout)
		return 0
	}

	warn := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "figures: "+format+"\n", args...)
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile, *traceFile)
	if err != nil {
		warn("%v", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			warn("%v", err)
		}
	}()

	if *resume && *ckptPath == "" {
		*ckptPath = "figures.ckpt.json"
	}
	var ck *study.Checkpoint
	if *ckptPath != "" {
		ck, err = study.OpenCheckpoint(*ckptPath, *resume)
		if err != nil {
			warn("%v", err)
			return 1
		}
		if rec := ck.Recovery(); rec.Damaged() {
			// Tamper-evident resume: damaged or stale entries were dropped
			// (those points will be recomputed) and the original file kept.
			warn("%s", rec)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ids := flag.Args()
	// The analytic study solves CTMCs of a few hundred thousand states per
	// sweep point, the live study runs real protocol executions, and the
	// faults study does both across a two-axis grid; each joins the default
	// set only when its flag is given (any can still be named explicitly as
	// an argument).
	optIn := map[string]bool{"analytic": *analytic, "live": *live, "faults": *faults}
	if len(ids) == 0 {
		ids = study.IDs()
		kept := ids[:0]
		for _, id := range ids {
			if on, gated := optIn[id]; !gated || on {
				kept = append(kept, id)
			}
		}
		ids = kept
	} else {
		for _, id := range []string{"analytic", "live", "faults"} {
			if !optIn[id] {
				continue
			}
			found := false
			for _, have := range ids {
				if have == id {
					found = true
					break
				}
			}
			if !found {
				ids = append(ids, id)
			}
		}
	}
	cfg := study.Config{
		Reps: *reps, Seed: *seed, Workers: *workers,
		RepDeadline: *repDeadline, MaxFailureFrac: *maxFailFrac,
		TargetRelHW: *relHW, TargetAbsHW: *absHW, MaxReps: *maxReps,
		Checkpoint: ck,
		Warnf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "figures: "+format+"\n", args...)
		},
	}
	for _, id := range ids {
		start := time.Now()
		fig, err := study.RunContext(ctx, id, cfg)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				warn("interrupted during %s", id)
				if ck != nil {
					warn("%d completed sweep point(s) checkpointed in %s; rerun with -resume -checkpoint %s to continue",
						ck.Len(), *ckptPath, *ckptPath)
				} else {
					warn("no checkpoint was configured; rerun with -checkpoint to make sweeps resumable")
				}
				return 130
			}
			warn("%s: %v", id, err)
			return 1
		}
		if err := fig.WriteText(os.Stdout); err != nil {
			warn("%v", err)
			return 1
		}
		fmt.Printf("\n[%s completed in %v with %d reps/point]\n\n", id, time.Since(start).Round(time.Millisecond), *reps)
		if *csvDir != "" {
			if err := writeCSV(fig, *csvDir, id); err != nil {
				warn("%v", err)
				return 1
			}
		}
	}
	return 0
}

// printExperimentList writes the sorted registry with one-line
// descriptions, one experiment per line.
func printExperimentList(w io.Writer) {
	ids := study.IDs()
	width := 0
	for _, id := range ids {
		if len(id) > width {
			width = len(id)
		}
	}
	for _, id := range ids {
		fmt.Fprintf(w, "%-*s  %s\n", width, id, study.Describe(id))
	}
}

// writeCSV writes one experiment's CSV file into dir.
func writeCSV(fig *study.Figure, dir, id string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, id+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fig.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("[wrote %s]\n", path)
	return nil
}
