// Command figures regenerates the evaluation figures of Singh, Cukier &
// Sanders, "Probabilistic Validation of an Intrusion-Tolerant Replication
// System" (DSN 2003), plus the cross-validation and ablation experiments of
// this reproduction.
//
// Usage:
//
//	figures [-reps N] [-seed S] [-precision R] [-csv dir] [-checkpoint file] [-resume] [experiment ...]
//
// With no experiment arguments every registered experiment runs except
// analytic, live and faults, which run only when named. Text tables go to
// stdout; -csv additionally writes one CSV file per experiment into the
// given directory.
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
// The three named-only studies are costly. analytic evaluates every
// Figure-5 spread rate on a two-domain, one-host-per-domain configuration
// both by simulation and by numerically exact uniformization of the
// generated CTMC (internal/exact), solving a chain of a few hundred
// thousand states per sweep point. live evaluates the same small
// configuration by simulating the SAN model and by running a real
// message-passing replica group under the model's attack process
// (internal/rsm), thousands of live agreement-protocol runs per sweep
// point. faults sweeps a partition-rate x campaign-rate grid on that
// configuration, with network partitions, correlated attack campaigns and
// a bounded repair crew active, cross-validated SAN vs direct simulation
// vs live replica group, with an exact uniformization anchor at one grid
// point.
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
	if len(ids) == 0 {
		for _, id := range study.IDs() {
			if !namedOnly[id] {
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

// namedOnly are the studies left out of the default set for their cost
// (see the package doc); naming one as an argument runs it.
var namedOnly = map[string]bool{"analytic": true, "live": true, "faults": true}

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
