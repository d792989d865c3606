package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ituaval/internal/reward"
	"ituaval/internal/san"
)

// buildPanicky builds a model whose tick activity panics with probability p
// per firing, drawn from the replication's own stream — so the set of
// failing replications is a deterministic function of the root seed.
func buildPanicky(t *testing.T, p float64) (*san.Model, *san.Place) {
	t.Helper()
	m := san.NewModel("panicky")
	n := m.Place("n", 0)
	m.AddActivity(san.ActivityDef{
		Name: "tick", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return 5 },
		Enabled: func(s *san.State) bool { return s.Get(n) < 1_000_000 },
		Reads:   []*san.Place{n},
		Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
			if ctx.Rand.Float64() < p {
				panic("injected model fault")
			}
			ctx.State.Add(n, 1)
		}}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m, n
}

// buildWedge builds a model that runs normally until its trigger fires (at
// rate 10, so almost surely well before any horizon the tests use) and
// then enters a self-enabling zero-delay instantaneous loop — the
// pathological case a watchdog or firing budget must catch, because
// simulation time never advances again.
func buildWedge(t *testing.T) *san.Model {
	t.Helper()
	m := san.NewModel("wedge")
	trap := m.Place("trap", 0)
	m.AddActivity(san.ActivityDef{
		Name: "trigger", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return 10 },
		Enabled: func(s *san.State) bool { return s.Get(trap) == 0 },
		Reads:   []*san.Place{trap},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(trap, 1) }}},
	})
	m.AddActivity(san.ActivityDef{
		Name: "spin", Kind: san.Instant,
		Enabled: func(s *san.State) bool { return s.Get(trap) == 1 },
		Reads:   []*san.Place{trap},
		Cases:   []san.Case{{Prob: 1}}, // no state change: enabled forever
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m
}

func panickySpec(m *san.Model, n *san.Place, reps int) Spec {
	return Spec{
		Model: m, Until: 2, Reps: reps, Seed: 7,
		Vars: []reward.Var{
			&reward.AtTime{VarName: "n", F: func(s *san.State) float64 { return float64(s.Get(n)) }, T: 2},
		},
		MaxFailureFrac: 1, // tolerate everything; the test inspects the ledger
	}
}

func TestPanicIsolation(t *testing.T) {
	m, n := buildPanicky(t, 0.05)
	spec := panickySpec(m, n, 200)
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failed == 0 {
		t.Fatal("no replication failed; p=0.05 over ~10 firings should fail some of 200 reps")
	}
	if res.Completed == 0 {
		t.Fatal("every replication failed; expected survivors")
	}
	if res.Completed+res.Failed != res.Reps || res.Skipped != 0 {
		t.Fatalf("accounting: completed=%d failed=%d skipped=%d reps=%d",
			res.Completed, res.Failed, res.Skipped, res.Reps)
	}
	if res.Attempted() != res.Reps {
		t.Fatalf("Attempted() = %d, want %d", res.Attempted(), res.Reps)
	}
	if got := int(res.MustGet("n").N); got != res.Completed {
		t.Fatalf("estimate aggregates %d observations, want the %d survivors", got, res.Completed)
	}
	for i, f := range res.Failures {
		if f.Kind != FailurePanic {
			t.Fatalf("failure %d kind = %v, want panic", i, f.Kind)
		}
		if f.PanicValue != "injected model fault" {
			t.Fatalf("failure %d panic value = %v", i, f.PanicValue)
		}
		if !strings.Contains(f.Stack, "goroutine") {
			t.Fatalf("failure %d has no captured stack", i)
		}
		if f.Seed != spec.Seed {
			t.Fatalf("failure %d seed = %d, want root seed %d", i, f.Seed, spec.Seed)
		}
		if i > 0 && res.Failures[i-1].Rep >= f.Rep {
			t.Fatalf("failures not sorted by rep: %d then %d", res.Failures[i-1].Rep, f.Rep)
		}
		if !strings.Contains(f.Error(), "panic") {
			t.Fatalf("failure %d Error() = %q", i, f.Error())
		}
	}
}

func TestPanicFailuresDeterministic(t *testing.T) {
	m, n := buildPanicky(t, 0.05)
	failedReps := func(workers int) []int {
		spec := panickySpec(m, n, 120)
		spec.Workers = workers
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		reps := make([]int, len(res.Failures))
		for i, f := range res.Failures {
			reps[i] = f.Rep
		}
		return reps
	}
	serial := failedReps(1)
	parallel := failedReps(4)
	if len(serial) == 0 {
		t.Fatal("no failures to compare")
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("failing replication set depends on scheduling: %v vs %v", serial, parallel)
	}
}

func TestReplayReproducesPanic(t *testing.T) {
	m, n := buildPanicky(t, 0.05)
	spec := panickySpec(m, n, 120)
	res, err := Run(spec)
	if err != nil || res.Failed == 0 || res.Completed == 0 {
		t.Fatalf("setup: err=%v failed=%d completed=%d", err, res.Failed, res.Completed)
	}
	f := res.Failures[0]
	got := Replay(spec, f.Rep)
	if got == nil {
		t.Fatalf("Replay(%d) completed cleanly, want the recorded panic", f.Rep)
	}
	if got.Kind != FailurePanic || got.PanicValue != f.PanicValue || got.Rep != f.Rep {
		t.Fatalf("Replay(%d) = %+v, want panic %v", f.Rep, got, f.PanicValue)
	}
	// A replication that completed in the study must also complete in replay.
	failed := make(map[int]bool, res.Failed)
	for _, fe := range res.Failures {
		failed[fe.Rep] = true
	}
	for rep := 0; rep < spec.Reps; rep++ {
		if !failed[rep] {
			if ferr := Replay(spec, rep); ferr != nil {
				t.Fatalf("Replay(%d) failed (%v) though the study completed it", rep, ferr)
			}
			break
		}
	}
}

func TestFailureThreshold(t *testing.T) {
	m, n := buildPanicky(t, 0.05)
	spec := panickySpec(m, n, 120)
	spec.MaxFailureFrac = -1 // zero tolerance
	res, err := Run(spec)
	if err == nil {
		t.Fatal("zero-tolerance run with injected panics returned no error")
	}
	if !strings.Contains(err.Error(), "replications failed") {
		t.Fatalf("err = %v", err)
	}
	var re *ReplicationError
	if !errors.As(err, &re) {
		t.Fatalf("aggregate error does not wrap a ReplicationError: %v", err)
	}
	if res == nil || res.Completed == 0 {
		t.Fatal("partial results were discarded on threshold breach")
	}
}

// buildTimedWedge builds a model whose only activity fires at rate 1e12:
// simulation time crawls forward in steps of about 1e-12, so the run
// effectively never reaches its end time. Unlike
// buildWedge there is no instantaneous chain, so neither the livelock
// detector nor san.Stabilize intervenes — only the wall-clock watchdog or
// the firing budget can stop it.
func buildTimedWedge(t *testing.T) *san.Model {
	t.Helper()
	m := san.NewModel("timed-wedge")
	n := m.Place("n", 0)
	m.AddActivity(san.ActivityDef{
		Name: "creep", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return 1e12 },
		Enabled: func(s *san.State) bool { return true },
		Reads:   []*san.Place{n},
		Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
			ctx.State.Set(n, 1-ctx.State.Get(n))
		}}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWatchdogDeadline(t *testing.T) {
	m := buildTimedWedge(t)
	res, err := Run(Spec{
		Model: m, Until: 10, Reps: 2, Seed: 1, Workers: 1,
		MaxFirings:     1 << 60, // budget out of the way: only the watchdog can stop it
		RepDeadline:    50 * time.Millisecond,
		MaxFailureFrac: 1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failed != 2 || res.Completed != 0 {
		t.Fatalf("completed=%d failed=%d, want the watchdog to fail both reps", res.Completed, res.Failed)
	}
	for _, f := range res.Failures {
		if f.Kind != FailureDeadline {
			t.Fatalf("kind = %v, want deadline", f.Kind)
		}
		if !errors.Is(f.Err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded", f.Err)
		}
	}
}

func TestFiringBudgetDegradesToFailure(t *testing.T) {
	m := buildWedge(t)
	res, err := Run(Spec{
		Model: m, Until: 10, Reps: 3, Seed: 1,
		MaxFirings:     10_000,
		MaxFailureFrac: 1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failed != 3 {
		t.Fatalf("failed=%d, want all 3 reps to trip the budget", res.Failed)
	}
	for _, f := range res.Failures {
		if f.Kind != FailureBudget {
			t.Fatalf("kind = %v, want firing-budget", f.Kind)
		}
		var be *BudgetError
		if !errors.As(f.Err, &be) || be.Limit != 10_000 {
			t.Fatalf("err = %v, want BudgetError with limit 10000", f.Err)
		}
	}
}

func TestCancellationReturnsPartialResults(t *testing.T) {
	m, q := buildMM1K(t, 2, 3, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const reps = 50
	var fired atomic.Int64
	vars := []reward.Var{
		&reward.TimeAverage{VarName: "len", F: func(s *san.State) float64 {
			// Cancel partway through the study, from inside a replication.
			if fired.Add(1) == 2000 {
				cancel()
			}
			return float64(s.Get(q))
		}, From: 0, To: 50},
	}
	res, err := RunContext(ctx, Spec{Model: m, Until: 50, Reps: reps, Seed: 3, Vars: vars, Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancellation discarded the partial results")
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed before cancellation; raise the trigger threshold")
	}
	if res.Skipped == 0 {
		t.Fatal("nothing was skipped; cancellation came too late to observe")
	}
	if res.Completed+res.Failed+res.Skipped != reps {
		t.Fatalf("accounting: completed=%d failed=%d skipped=%d reps=%d",
			res.Completed, res.Failed, res.Skipped, reps)
	}
	if got := int(res.MustGet("len").N); got != res.Completed {
		t.Fatalf("estimate has %d observations, want the %d completed reps", got, res.Completed)
	}
}

func TestCancelledBeforeStart(t *testing.T) {
	m, q := buildMM1K(t, 2, 3, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	vars := []reward.Var{
		&reward.TimeAverage{VarName: "len", F: func(s *san.State) float64 { return float64(s.Get(q)) }, From: 0, To: 50},
	}
	res, err := RunContext(ctx, Spec{Model: m, Until: 50, Reps: 10, Seed: 3, Vars: vars})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Completed != 0 || res.Skipped != 10 {
		t.Fatalf("completed=%d skipped=%d, want 0/10", res.Completed, res.Skipped)
	}
}

func TestFailureKindStrings(t *testing.T) {
	want := map[FailureKind]string{
		FailureModel:     "model-error",
		FailurePanic:     "panic",
		FailureDeadline:  "deadline",
		FailureBudget:    "firing-budget",
		FailureInvariant: "invariant",
		FailureLivelock:  "livelock",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if s := FailureKind(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("unknown kind String() = %q", s)
	}
}
