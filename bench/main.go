// Command bench is the repository's benchmark: six fixed workloads over the
// validation stack, each measured end to end in its own process, with a
// separate traced run that splits the time by layer.
//
//	bash bench/run.sh                                  # every workload, untraced
//	bash bench/run.sh --workload exact-wide --seed 3   # one workload
//	bash bench/run.sh --trace 1 --spans spans.json     # traced run
//	bash bench/run.sh --compare base.jsonl -- new.jsonl
//
// A benchmark harness runs BENCHMARK.json's command with
// --workload NAME --seed N --seconds S --trace 0|1 and reads the JSON object
// printed last. Without --seconds a run measures for BENCHMARK.json's
// run_seconds. bench/README.md describes the workloads, the metrics and the
// bounds.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many fresh processes time the set-up; the reported
// set-up time is their median.
const setupRuns = 11

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
	out      string
	root     string
	work     string
	phase    string
}

// The phases a run starts in processes of their own.
const (
	phasePrepare = "prepare"
	phaseSetup   = "setup"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	var compare bool
	var claim string
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: every workload, each in its own process)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: every input of the run derives from it")
	fs.Float64Var(&o.seconds, "seconds", 0, "how long to measure, in seconds (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&traceFlag, "trace", 0, "1 for the traced run, which reports the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write the recorded spans as JSON to this file")
	fs.StringVar(&o.out, "out", "", "append each workload's result as one JSON line to this file, for -compare")
	fs.BoolVar(&compare, "compare", false, "compare result files: -compare <base files> -- <new files>")
	fs.StringVar(&claim, "claim", "", "with -compare, the workload/metric claimed to improve")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.work, "work", "", "scratch directory (default: .bench_build/run-<pid> under the root)")
	fs.StringVar(&o.phase, "phase", "", "run only this phase of the workload, prepare or setup, print ready and exit (used by the measuring process)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if compare {
		return runCompare(o.root, fs.Args(), claim, stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if o.phase == "" && o.seconds <= 0 {
		spec, err := loadSpec(o.root)
		if err == nil && spec.RunSeconds < 1 {
			err = fmt.Errorf("BENCHMARK.json: run_seconds %d, want at least 1", spec.RunSeconds)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		o.seconds = float64(spec.RunSeconds)
	}
	if o.workload == "" {
		return runAll(o, stdout, stderr)
	}
	w, err := findWorkload(workloads(), o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.work == "" {
		o.work = filepath.Join(o.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
		defer os.RemoveAll(o.work)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	e := &env{root: o.root, work: o.work, seed: o.seed}
	switch o.phase {
	case "":
	case phasePrepare:
		if w.prepare == nil {
			fmt.Fprintf(stderr, "bench: %s has nothing to prepare\n", w.name)
			return 2
		}
		if err := w.prepare(e); err != nil {
			fmt.Fprintln(stderr, "bench: prepare:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	case phaseSetup:
		inst, err := w.setup(e)
		if err != nil {
			fmt.Fprintln(stderr, "bench: set-up:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		if err := inst.close(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	default:
		fmt.Fprintf(stderr, "bench: unknown phase %q\n", o.phase)
		return 2
	}
	gold, err := golden()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	phase := func(name string) (float64, error) { return phaseChild(self, o, name) }
	ref, ok := gold[w.name]
	var refp *digest
	if ok {
		refp = &ref
	}
	res := measure(e, w, o, refp, phase, stderr)
	if o.out != "" {
		if err := appendRecord(o.out, record{Workload: w.name, Seed: o.seed, Trace: o.trace, Result: res}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// phaseChild runs one phase of the workload in a fresh process of this
// binary, times it from the process's start until it reports the phase done,
// then waits for it to exit. A process that takes longer than a minute is
// killed.
func phaseChild(self string, o options, phase string) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-phase", phase, "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10), "-root", o.root, "-work", o.work)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	elapsed := time.Since(t0).Seconds()
	_, _ = io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("%s process: %w", phase, err)
	}
	if readErr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("%s process printed %q", phase, line)
	}
	return elapsed, nil
}

// measure runs one workload: its preparation and set-up, each in fresh
// processes that phase runs and times, then a warm-up operation, then
// operations until the time is up. Every operation is checked; operation 0
// at seed 1 is also checked against the golden digest ref, when there is
// one.
func measure(e *env, w *workload, o options, ref *digest, phase func(name string) (float64, error), log io.Writer) result {
	res := result{Metrics: map[string]measured{}}
	fail := func(what string, err error) {
		res.Failed++
		fmt.Fprintf(log, "bench: %s: %s: %v\n", w.name, what, err)
	}
	finish := func(values map[string]float64) result {
		defs := endToEnd
		if o.trace {
			defs = perLayer
		}
		res.Metrics = fill(defs, values)
		res.Correct = res.Failed == 0
		if res.Attempted == 0 {
			res.Attempted = 1
		}
		return res
	}

	if w.prepare != nil {
		if _, err := phase(phasePrepare); err != nil {
			res.Attempted++
			fail("prepare", err)
			return finish(nil)
		}
	}
	var setups []float64
	for k := 0; k < setupRuns; k++ {
		s, err := phase(phaseSetup)
		if err != nil {
			res.Attempted++
			fail("set-up", err)
			return finish(nil)
		}
		setups = append(setups, s)
	}
	inst, err := w.setup(e)
	if err != nil {
		res.Attempted++
		fail("set-up", err)
		return finish(nil)
	}
	defer func() {
		if err := inst.close(); err != nil {
			fmt.Fprintf(log, "bench: %s: close: %v\n", w.name, err)
		}
	}()

	// check counts operation i; untraced operations are also held to the
	// golden digest.
	check := func(i int, d digest, err error, untraced bool) {
		res.Attempted++
		if err == nil && untraced && ref != nil {
			switch {
			case i == 0 && e.seed == 1:
				err = d.matches(*ref, goldenTol)
			case w.fixedCounts:
				err = digest{Counts: d.Counts}.matches(digest{Counts: ref.Counts}, 0)
			}
		}
		if err != nil {
			fail(fmt.Sprintf("operation %d", i), err)
		}
	}
	d0, err := inst.op(0)
	check(0, d0, err, true)

	deadline := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		var lat []float64
		t0 := time.Now()
		for i := 1; i == 1 || time.Since(t0) < deadline; i++ {
			s := time.Now()
			d, err := inst.op(i)
			lat = append(lat, time.Since(s).Seconds())
			check(i, d, err, true)
		}
		return finish(map[string]float64{
			"setup_s":     median(setups),
			"latency_ms":  1e3 * median(lat),
			"peak_rss_mb": peakRSSMB(),
		})
	}
	return finish(measureTraced(w, inst, d0, o, deadline, check, fail))
}

// measureTraced pairs each traced operation with an untraced one on the
// same inputs (when the workload can repeat them), so the two must agree
// bit for bit and their times give the tracing overhead.
func measureTraced(w *workload, inst instance, d0 digest, o options, deadline time.Duration,
	check func(int, digest, error, bool), fail func(string, error)) map[string]float64 {
	t := newTracer(w.name)
	gc0 := gcCPU()
	var plain, traced []float64
	var roots []*span
	t0 := time.Now()
	for i := 0; i < 2 || time.Since(t0) < deadline; i++ {
		di := d0
		if i > 0 {
			s := time.Now()
			d, err := inst.op(i)
			plain = append(plain, time.Since(s).Seconds())
			check(i, d, err, true)
			di = d
		}
		root := t.begin(nil, i, "op")
		d, err := inst.traced(i, root)
		root.end()
		roots = append(roots, root)
		if i > 0 {
			traced = append(traced, root.seconds())
		}
		if err == nil && inst.repeatable() {
			if merr := d.matches(di, 0); merr != nil {
				err = fmt.Errorf("traced run differs from untraced run: %w", merr)
			}
		}
		check(i, d, err, false)
	}
	gc1 := gcCPU()

	m := make(map[string]float64)
	if err := inst.layers(t, m); err != nil {
		fail("layers", err)
	}
	var covered, wall time.Duration
	var allocMB, spans []float64
	for _, r := range roots {
		c, d := t.coverage(r)
		covered += c
		wall += d
		allocMB = append(allocMB, float64(r.Bytes)/(1<<20))
		spans = append(spans, float64(t.spansOf(r.Op)))
	}
	m["trace.coverage"] = float64(covered) / float64(wall)
	m["trace.overhead_frac"] = median(traced)/median(plain) - 1
	m["trace.spans"] = median(spans)
	m["go.alloc_mb"] = median(allocMB)
	if total := gc1.total - gc0.total; total > 0 {
		m["go.gc_cpu_frac"] = (gc1.gc - gc0.gc) / total
	}
	if o.spans != "" {
		if err := t.write(o.spans); err != nil {
			fail("spans", err)
		}
	}
	return m
}

type gcSample struct{ gc, total float64 }

// gcCPU reads the runtime's estimate of CPU seconds spent in the garbage
// collector and in total.
func gcCPU() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload, each in a fresh process of this binary, and
// prints one row per metric.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads() {
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "-root", o.root}
		if o.trace {
			args = append(args, "-trace", "1")
			if o.spans != "" {
				args = append(args, "-spans", strings.TrimSuffix(o.spans, ".json")+"."+w.name+".json")
			}
		}
		if o.out != "" {
			args = append(args, "-out", o.out)
		}
		res, err := runChild(self, args)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			status = 1
			continue
		}
		fmt.Fprintf(stdout, "%-12s correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
		defs := endToEnd
		if o.trace {
			defs = perLayer
		}
		for _, d := range defs {
			if v, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
	return status
}

// runChild runs this binary with args and decodes the result it prints
// last.
func runChild(self string, args []string) (result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, errors.Join(runErr, fmt.Errorf("no result line: %w", err))
	}
	if runErr != nil || !res.Correct {
		return res, fmt.Errorf("run failed (%v): %d of %d operations failed", runErr, res.Failed, res.Attempted)
	}
	return res, nil
}
