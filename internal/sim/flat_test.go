package sim

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ituaval/internal/reward"
	"ituaval/internal/san"
)

// flatTestSpecs builds a mixed batch of studies over two different models
// and several spec shapes (plain, KeepPerRep, CRN), the space
// RunFlat must reproduce bit-for-bit.
func flatTestSpecs(t testing.TB) []Spec {
	mq, q := buildMM1K(t, 2, 3, 5)
	mt2, up := buildTwoState(t, 0.5, 2)
	qLen := func(s *san.State) float64 { return float64(s.Get(q)) }
	down := func(s *san.State) float64 { return 1 - float64(s.Get(up)) }
	return []Spec{
		{Model: mq, Until: 40, Reps: 30, Seed: 11,
			Vars: []reward.Var{&reward.TimeAverage{VarName: "len", F: qLen, From: 0, To: 40}}},
		{Model: mt2, Until: 25, Reps: 40, Seed: 12, KeepPerRep: true,
			Vars: []reward.Var{&reward.TimeAverage{VarName: "down", F: down, From: 0, To: 25}}},
		{Model: mq, Until: 30, Reps: 20, Seed: 13, CRN: true,
			Vars: []reward.Var{&reward.TimeAverage{VarName: "len", F: qLen, From: 0, To: 30}}},
		{Model: mt2, Until: 25, Reps: 24, Seed: 14,
			Vars: []reward.Var{&reward.TimeAverage{VarName: "down", F: down, From: 0, To: 25}}},
	}
}

// requireSameResults asserts bit-identical estimates and identical
// replication accounting between two results of the same spec.
func requireSameResults(t *testing.T, label string, want, got *Results) {
	t.Helper()
	if got.Reps != want.Reps || got.Completed != want.Completed ||
		got.Failed != want.Failed || got.Skipped != want.Skipped ||
		got.TotalFirings != want.TotalFirings {
		t.Fatalf("%s: accounting differs: got %d/%d/%d/%d firings=%d, want %d/%d/%d/%d firings=%d",
			label, got.Reps, got.Completed, got.Failed, got.Skipped, got.TotalFirings,
			want.Reps, want.Completed, want.Failed, want.Skipped, want.TotalFirings)
	}
	if len(got.Estimates) != len(want.Estimates) {
		t.Fatalf("%s: %d estimates, want %d", label, len(got.Estimates), len(want.Estimates))
	}
	for i := range want.Estimates {
		w, g := want.Estimates[i], got.Estimates[i]
		if g.Name != w.Name || g.N != w.N ||
			math.Float64bits(g.Mean) != math.Float64bits(w.Mean) ||
			math.Float64bits(g.HalfWidth95) != math.Float64bits(w.HalfWidth95) {
			t.Fatalf("%s: estimate %q differs: got %+v, want %+v", label, w.Name, g, w)
		}
	}
	for i := range want.PerRep {
		for j := range want.PerRep[i] {
			if math.Float64bits(got.PerRep[i][j]) != math.Float64bits(want.PerRep[i][j]) {
				t.Fatalf("%s: PerRep[%d][%d] differs: got %v, want %v",
					label, i, j, got.PerRep[i][j], want.PerRep[i][j])
			}
		}
	}
}

var updateFlatGolden = flag.Bool("update-flat-golden", false,
	"rewrite testdata/flat_golden.json from the current scheduler at Workers=1")

const flatGoldenPath = "testdata/flat_golden.json"

// resultLines flattens a result into bit-exact strings: accounting, every
// estimate field, and every per-replication value.
func resultLines(res *Results) []string {
	out := []string{fmt.Sprintf("reps=%d|completed=%d|failed=%d|skipped=%d|firings=%d",
		res.Reps, res.Completed, res.Failed, res.Skipped, res.TotalFirings)}
	for _, e := range res.Estimates {
		out = append(out, fmt.Sprintf("%s|mean=%016x|hw=%016x|min=%016x|max=%016x|n=%d",
			e.Name, math.Float64bits(e.Mean), math.Float64bits(e.HalfWidth95),
			math.Float64bits(e.Min), math.Float64bits(e.Max), e.N))
	}
	for i, row := range res.PerRep {
		line := fmt.Sprintf("perrep[%d]", i)
		for _, x := range row {
			line += fmt.Sprintf("|%016x", math.Float64bits(x))
		}
		out = append(out, line)
	}
	return out
}

// TestRunFlatMatchesRunContext is the scheduler's core contract: for every
// spec shape, RunFlat at 1, 3 and 8 workers, and RunContext at 1 and 4,
// return the Workers=1 bits pinned in testdata/flat_golden.json — same
// estimates, same per-replication values, same accounting. The golden was
// captured from the scheduler that aggregated only after a spec's last
// replication, so it also pins the streaming fold to that order.
func TestRunFlatMatchesRunContext(t *testing.T) {
	if *updateFlatGolden {
		g := make(map[string][]string)
		for i, fr := range RunFlat(context.Background(), flatTestSpecs(t), 1) {
			if fr.Err != nil {
				t.Fatalf("spec %d: %v", i, fr.Err)
			}
			g[fmt.Sprintf("spec %d", i)] = resultLines(fr.Results)
		}
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(flatGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(flatGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(flatGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-flat-golden): %v", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	check := func(label string, i int, res *Results) {
		t.Helper()
		got, w := resultLines(res), want[fmt.Sprintf("spec %d", i)]
		if len(w) == 0 || fmt.Sprint(got) != fmt.Sprint(w) {
			t.Fatalf("%s spec %d:\n  got  %v\n  want %v", label, i, got, w)
		}
	}
	for _, workers := range []int{1, 3, 8} {
		for i, fr := range RunFlat(context.Background(), flatTestSpecs(t), workers) {
			if fr.Err != nil {
				t.Fatalf("RunFlat workers=%d spec %d: %v", workers, i, fr.Err)
			}
			check(fmt.Sprintf("RunFlat workers=%d", workers), i, fr.Results)
		}
	}
	for _, workers := range []int{1, 4} {
		for i, spec := range flatTestSpecs(t) {
			spec.Workers = workers
			res, err := RunContext(context.Background(), spec)
			if err != nil {
				t.Fatalf("RunContext workers=%d spec %d: %v", workers, i, err)
			}
			check(fmt.Sprintf("RunContext workers=%d", workers), i, res)
		}
	}
}

// TestRunFlatInvalidSpec checks that invalid specs report their validation
// error without simulating, while the valid specs in the same batch run
// normally.
func TestRunFlatInvalidSpec(t *testing.T) {
	m, q := buildMM1K(t, 2, 3, 5)
	valid := Spec{Model: m, Until: 10, Reps: 8, Seed: 1,
		Vars: []reward.Var{&reward.TimeAverage{VarName: "len",
			F: func(s *san.State) float64 { return float64(s.Get(q)) }, From: 0, To: 10}}}
	invalid := valid
	invalid.Reps = 0
	frs := RunFlat(context.Background(), []Spec{invalid, valid}, 2)
	if frs[0].Err == nil || frs[0].Results != nil {
		t.Fatalf("invalid spec: got (%v, %v), want validation error and nil results",
			frs[0].Results, frs[0].Err)
	}
	if frs[1].Err != nil {
		t.Fatalf("valid spec alongside invalid one failed: %v", frs[1].Err)
	}
	if frs[1].Results.Completed != valid.Reps {
		t.Fatalf("valid spec completed %d of %d", frs[1].Results.Completed, valid.Reps)
	}
}

// TestRunFlatCancellation checks the skip accounting: with the context
// already cancelled, no replication runs, every valid spec reports
// ctx.Err(), and Reps == Skipped.
func TestRunFlatCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := flatTestSpecs(t)
	frs := RunFlat(ctx, specs, 4)
	for i, fr := range frs {
		if fr.Err != context.Canceled {
			t.Fatalf("spec %d: err = %v, want context.Canceled", i, fr.Err)
		}
		res := fr.Results
		if res == nil || res.Completed != 0 || res.Failed != 0 || res.Skipped != specs[i].Reps {
			t.Fatalf("spec %d: results %+v, want all %d replications skipped", i, res, specs[i].Reps)
		}
	}
}

// TestRunFlatEmpty covers the degenerate inputs: no specs, and a batch of
// only-invalid specs.
func TestRunFlatEmpty(t *testing.T) {
	if frs := RunFlat(context.Background(), nil, 4); len(frs) != 0 {
		t.Fatalf("RunFlat(nil) = %v", frs)
	}
	frs := RunFlat(context.Background(), []Spec{{}}, 4)
	if len(frs) != 1 || frs[0].Err == nil {
		t.Fatalf("all-invalid batch: %+v", frs)
	}
}

// TestFoldOrderIndependent is the streaming fold's white-box contract: the
// same outcomes — completions, an observation-less completion, failures and
// skips — handed over in order, in reverse, and interleaved give identical
// Results, with Failures in Rep order, the Results returned exactly once
// (by the last add), and nothing left waiting in the ring.
func TestFoldOrderIndependent(t *testing.T) {
	vars := []reward.Var{
		&reward.TimeAverage{VarName: "a"},
		&reward.TimeAverage{VarName: "b"},
	}
	const reps = 12
	outcomes := make([]outcome, reps)
	for j := range outcomes {
		switch j {
		case 3, 8:
			outcomes[j].ferr = &ReplicationError{Rep: 100 + j, Seed: 1, Kind: FailureBudget}
		case 6:
			// skipped: neither observations nor a failure
		case 10:
			outcomes[j].vals = [][]float64{{}, {float64(j)}}
			outcomes[j].firings = 1
		default:
			outcomes[j].vals = [][]float64{{float64(j), 0.5 * float64(j*j)}, {1 / float64(j+1)}}
			outcomes[j].firings = int64(10 + j)
		}
	}
	forward := make([]int, reps)
	reverse := make([]int, reps)
	for j := range forward {
		forward[j], reverse[j] = j, reps-1-j
	}
	interleaved := []int{1, 0, 5, 3, 2, 11, 4, 7, 9, 6, 10, 8}
	for _, shape := range []struct {
		name string
		spec Spec
	}{
		{"plain", Spec{Reps: reps, FirstRep: 100, Vars: vars}},
		{"per-rep", Spec{Reps: reps, FirstRep: 100, Vars: vars, KeepPerRep: true}},
	} {
		var want []string
		for _, order := range [][]int{forward, reverse, interleaved} {
			f := newFold(&shape.spec)
			var res *Results
			for k, j := range order {
				got := f.add(j, outcomes[j])
				if (got != nil) != (k == reps-1) {
					t.Fatalf("%s order %v: add #%d returned results %v", shape.name, order, k, got != nil)
				}
				if got != nil {
					res = got
				}
			}
			for r, o := range f.ahead {
				if o.done || o.vals != nil || o.ferr != nil {
					t.Fatalf("%s order %v: ring slot %d still holds an outcome", shape.name, order, r)
				}
			}
			if res.Failed != 2 || res.Failures[0].Rep != 103 || res.Failures[1].Rep != 108 {
				t.Fatalf("%s order %v: failures %+v, want reps 103 and 108 in order",
					shape.name, order, res.Failures)
			}
			if res.Skipped != 1 || res.Completed != reps-3 {
				t.Fatalf("%s order %v: completed %d skipped %d", shape.name, order, res.Completed, res.Skipped)
			}
			lines := resultLines(res)
			if want == nil {
				want = lines
			} else if fmt.Sprint(lines) != fmt.Sprint(want) {
				t.Fatalf("%s order %v:\n  got  %v\n  want %v", shape.name, order, lines, want)
			}
		}
	}
}

// TestRunFlatCancelMidRun cancels a multi-worker run from the OnRep hook
// after k finished units: every spec must still account for every
// replication (Reps == Completed + Failed + Skipped), report ctx.Err(), and
// have its OnSpec hook called exactly once.
func TestRunFlatCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs := flatTestSpecs(t)
	for i := range specs {
		specs[i].Reps *= 10
	}
	const k = 25
	var ticks atomic.Int64
	onSpec := make([]atomic.Int64, len(specs))
	frs := RunFlatFunc(ctx, specs, 4, FlatHooks{
		OnRep: func(int) {
			if ticks.Add(1) == k {
				cancel()
			}
		},
		OnSpec: func(si int, _ FlatResult) { onSpec[si].Add(1) },
	})
	completed, skipped := 0, 0
	for i, fr := range frs {
		res := fr.Results
		if !errors.Is(fr.Err, context.Canceled) || res == nil {
			t.Fatalf("spec %d: (%v, %v), want results and context.Canceled", i, res, fr.Err)
		}
		if res.Reps != specs[i].Reps || res.Reps != res.Completed+res.Failed+res.Skipped {
			t.Fatalf("spec %d: reps %d != completed %d + failed %d + skipped %d (requested %d)",
				i, res.Reps, res.Completed, res.Failed, res.Skipped, specs[i].Reps)
		}
		if n := onSpec[i].Load(); n != 1 {
			t.Fatalf("spec %d: OnSpec called %d times", i, n)
		}
		completed += res.Completed
		skipped += res.Skipped
	}
	if completed < k || skipped == 0 {
		t.Fatalf("completed %d (want >= %d), skipped %d (want > 0)", completed, k, skipped)
	}
}
