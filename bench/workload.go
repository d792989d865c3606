package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"

	"ituaval/internal/rng"
)

// workers is the parallelism of every workload: the benchmark machine has
// two cores, and a fixed count keeps results and timings comparable.
const workers = 2

// env is what a workload instance needs from the run.
type env struct {
	root string // repository root: holds testdata/scenarios
	work string // scratch directory owned by this process
	seed uint64 // workload seed; every input derives from it
}

// scenarioPath locates a scenario document of the repository.
func (e *env) scenarioPath(name string) string {
	return filepath.Join(e.root, "testdata", "scenarios", name)
}

// inputs returns the random stream of operation i's inputs. Operations draw
// their seeds and rates from it, so one seed fixes every input of a run
// while the library sees only the generated values.
func (e *env) inputs(workload string, i uint64) *rng.Stream {
	return rng.New(e.seed).RoleNamed(workload).Derive(i)
}

// simSeed draws a simulation seed below 2^52, so it survives a JSON round
// trip and leaves room for per-point seed offsets.
func simSeed(s *rng.Stream) uint64 { return 1 + s.Uint64()>>12 }

// workload is one named set of inputs.
type workload struct {
	name string
	// prepare runs once per run, in a process of its own before set-up is
	// timed, and leaves in the work directory the state set-up relies on (a
	// filled cache). Its own process keeps its memory out of the measuring
	// process's peak. May be nil.
	prepare func(e *env) error
	// setup readies an instance: the work set-up time measures.
	setup func(e *env) (instance, error)
	// fixedCounts marks a workload whose golden counts hold at every seed
	// and operation (a state space that drawn rates do not change).
	fixedCounts bool
}

// instance runs one workload's operations.
type instance interface {
	// op runs operation i untraced and checks its outputs.
	op(i int) (digest, error)
	// traced runs operation i (or, if repeatable is false, an operation
	// on inputs no untraced call uses) under root, calling each layer in
	// its own span.
	traced(i int, root *span) (digest, error)
	// repeatable reports whether traced(i) recomputes op(i)'s inputs, so
	// the two must agree bit for bit.
	repeatable() bool
	// layers derives the per-layer metrics from the recorded spans and
	// runs the layer-ladder probes.
	layers(t *tracer, m map[string]float64) error
	close() error
}

// workloads is the benchmark's workload set, in run order.
func workloads() []*workload {
	return []*workload{
		fig5Workload(fig5Size{reps: 500, ladderReps: 250}),
		exactWorkload(exactAnchorSize),
		exactWorkload(exactWideSize),
		xcheckWorkload(xcheckSize{reps: 800, liveReps: 100, T: 10, ladderOps: 2000}),
		jobsWorkload(jobsSize{reps: 4000, ladderOps: 3}),
		hitsWorkload(hitsSize{jobs: 16, reps: 50}),
	}
}

func findWorkload(ws []*workload, name string) (*workload, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// digest summarizes an operation's output for the correctness gates: a
// hash of rendered bytes, numeric values, and exact counts.
type digest struct {
	SHA256 string             `json:"sha256,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
	Counts map[string]int64   `json:"counts,omitempty"`
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenTol is the absolute tolerance of golden values: they lie in [0, 1],
// and a change of summation order may move them by a few ulps.
const goldenTol = 1e-12

// matches compares d to a reference. With tol 0 values must be identical.
func (d digest) matches(ref digest, tol float64) error {
	if d.SHA256 != ref.SHA256 {
		return fmt.Errorf("sha256 %s, want %s", d.SHA256, ref.SHA256)
	}
	if len(d.Values) != len(ref.Values) || len(d.Counts) != len(ref.Counts) {
		return fmt.Errorf("digest has %d values and %d counts, want %d and %d",
			len(d.Values), len(d.Counts), len(ref.Values), len(ref.Counts))
	}
	for k, want := range ref.Values {
		got, ok := d.Values[k]
		if !ok || math.Abs(got-want) > tol || (tol == 0 && got != want) {
			return fmt.Errorf("value %s = %v, want %v", k, got, want)
		}
	}
	for k, want := range ref.Counts {
		if got, ok := d.Counts[k]; !ok || got != want {
			return fmt.Errorf("count %s = %d, want %d", k, got, want)
		}
	}
	return nil
}

// unit checks that a probability or fraction lies in [0, 1].
func unit(name string, v float64) error {
	if !(v >= 0 && v <= 1) {
		return fmt.Errorf("%s = %v, outside [0, 1]", name, v)
	}
	return nil
}

//go:embed testdata/golden.json
var goldenJSON []byte

// golden holds, per workload, the digest of operation 0 at seed 1.
func golden() (map[string]digest, error) {
	var g map[string]digest
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}
