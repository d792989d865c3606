package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ituaval/internal/reward"
	"ituaval/internal/san"
)

// buildLeaky builds a two-place token cycle whose total population must
// stay at 2, with a deliberately buggy output gate: with probability p per
// forward firing (drawn from the replication's own stream, so the failing
// replication set is a deterministic function of the seed) it deposits two
// tokens instead of one, breaking conservation.
func buildLeaky(t *testing.T, p float64) (*san.Model, *san.Place, *san.Place) {
	t.Helper()
	m := san.NewModel("leaky")
	src := m.Place("src", 2)
	dst := m.Place("dst", 0)
	m.AddActivity(san.ActivityDef{
		Name: "fwd", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return 5 },
		Enabled: func(s *san.State) bool { return s.Get(src) > 0 },
		Reads:   []*san.Place{src},
		Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
			ctx.State.Add(src, -1)
			if ctx.Rand.Float64() < p {
				ctx.State.Add(dst, 2) // the injected bug
			} else {
				ctx.State.Add(dst, 1)
			}
		}}},
	})
	m.AddActivity(san.ActivityDef{
		Name: "back", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return 5 },
		Enabled: func(s *san.State) bool { return s.Get(dst) > 0 },
		Reads:   []*san.Place{dst},
		Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
			ctx.State.Add(dst, -1)
			ctx.State.Add(src, 1)
		}}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m, src, dst
}

func conservation(src, dst *san.Place, want san.Marking) Invariant {
	return Invariant{
		Name: "token-conservation",
		Check: func(s *san.State) error {
			if got := s.Get(src) + s.Get(dst); got != want {
				return fmt.Errorf("src+dst = %d, want %d", got, want)
			}
			return nil
		},
	}
}

func leakySpec(m *san.Model, src, dst *san.Place, reps int) Spec {
	return Spec{
		Model: m, Until: 5, Reps: reps, Seed: 11,
		Vars: []reward.Var{
			&reward.AtTime{VarName: "dst", F: func(s *san.State) float64 { return float64(s.Get(dst)) }, T: 5},
		},
		Invariants:     []Invariant{conservation(src, dst, 2)},
		InvariantEvery: 1, // catch the leak at the very next event
		MaxFailureFrac: 1,
	}
}

func TestInvariantViolationCaught(t *testing.T) {
	m, src, dst := buildLeaky(t, 0.05)
	spec := leakySpec(m, src, dst, 150)
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failed == 0 {
		t.Fatal("no replication failed; the injected leak should trip the invariant")
	}
	if res.Completed == 0 {
		t.Fatal("every replication failed; expected clean survivors")
	}
	if res.Completed+res.Failed != res.Reps {
		t.Fatalf("accounting: completed=%d failed=%d reps=%d", res.Completed, res.Failed, res.Reps)
	}
	if got := int(res.MustGet("dst").N); got != res.Completed {
		t.Fatalf("estimate aggregates %d observations, want the %d survivors", got, res.Completed)
	}
	for i, f := range res.Failures {
		if f.Kind != FailureInvariant {
			t.Fatalf("failure %d kind = %v, want invariant", i, f.Kind)
		}
		var ie *InvariantError
		if !errors.As(f.Err, &ie) {
			t.Fatalf("failure %d does not wrap an InvariantError: %v", i, f.Err)
		}
		if ie.Name != "token-conservation" {
			t.Fatalf("failure %d names invariant %q", i, ie.Name)
		}
		if ie.Time < 0 || ie.Time > 5 || ie.Firings <= 0 {
			t.Fatalf("failure %d context: t=%v firings=%d", i, ie.Time, ie.Firings)
		}
	}
}

func TestInvariantFailuresDeterministicAndReplayable(t *testing.T) {
	m, src, dst := buildLeaky(t, 0.05)
	spec := leakySpec(m, src, dst, 100)
	runReps := func(workers int) []int {
		s := spec
		s.Workers = workers
		res, err := Run(s)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		reps := make([]int, len(res.Failures))
		for i, f := range res.Failures {
			reps[i] = f.Rep
		}
		return reps
	}
	serial := runReps(1)
	parallel := runReps(4)
	if len(serial) == 0 {
		t.Fatal("no invariant failures to compare")
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("failing set depends on scheduling: %v vs %v", serial, parallel)
	}

	got := Replay(spec, serial[0])
	if got == nil {
		t.Fatalf("Replay(%d) completed cleanly, want the recorded invariant violation", serial[0])
	}
	if got.Kind != FailureInvariant {
		t.Fatalf("Replay kind = %v, want invariant", got.Kind)
	}
	failed := make(map[int]bool)
	for _, r := range serial {
		failed[r] = true
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

func TestInvariantThreshold(t *testing.T) {
	m, src, dst := buildLeaky(t, 0.05)
	spec := leakySpec(m, src, dst, 100)
	spec.MaxFailureFrac = -1
	res, err := Run(spec)
	if err == nil {
		t.Fatal("zero-tolerance run with a leaking gate returned no error")
	}
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("aggregate error does not expose the InvariantError: %v", err)
	}
	if res == nil || res.Completed == 0 {
		t.Fatal("partial results were discarded on threshold breach")
	}
}

func TestInvariantViolatedInitially(t *testing.T) {
	m, src, dst := buildLeaky(t, 0)
	spec := leakySpec(m, src, dst, 2)
	spec.Invariants = []Invariant{conservation(src, dst, 99)} // wrong by construction
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failed != 2 {
		t.Fatalf("failed=%d, want the initial marking to fail both reps", res.Failed)
	}
	var ie *InvariantError
	if !errors.As(res.Failures[0].Err, &ie) || ie.Time != 0 || ie.Firings != 0 {
		t.Fatalf("initial violation context = %+v", res.Failures[0].Err)
	}
}

// Installing invariants that hold must not change trajectories or
// estimates: checks read the marking but never consume randomness.
func TestInvariantsDoNotPerturbTrajectories(t *testing.T) {
	m, src, dst := buildLeaky(t, 0)
	spec := leakySpec(m, src, dst, 40)
	plain := spec
	plain.Invariants = nil
	a, err := Run(plain)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatalf("monitored run: %v", err)
	}
	if b.Failed != 0 {
		t.Fatalf("clean model failed %d reps under monitoring", b.Failed)
	}
	ea, eb := a.MustGet("dst"), b.MustGet("dst")
	if ea.Mean != eb.Mean || ea.N != eb.N {
		t.Fatalf("monitoring changed estimates: %+v vs %+v", ea, eb)
	}
}

func TestLivelockDetected(t *testing.T) {
	m := buildWedge(t)
	spec := Spec{
		Model: m, Until: 10, Reps: 2, Seed: 1, Workers: 1,
		MaxFirings:     1 << 60, // budget out of the way: the livelock detector must trip
		MaxFailureFrac: 1,
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failed != 2 {
		t.Fatalf("failed=%d, want the livelock detector to fail both reps", res.Failed)
	}
	for _, f := range res.Failures {
		if f.Kind != FailureLivelock {
			t.Fatalf("kind = %v, want livelock", f.Kind)
		}
		var le *LivelockError
		if !errors.As(f.Err, &le) {
			t.Fatalf("err = %v, want LivelockError", f.Err)
		}
		if le.Last != "spin" || le.Chain <= maxInstantChain {
			t.Fatalf("livelock context = %+v", le)
		}
	}
	if got := Replay(spec, res.Failures[0].Rep); got == nil || got.Kind != FailureLivelock {
		t.Fatalf("Replay = %+v, want livelock", got)
	}
}

// A self-enabling loop live at time zero is rejected by san.Stabilize
// during initialization; it must classify as a livelock too.
func TestInitialInstabilityClassifiesAsLivelock(t *testing.T) {
	m := san.NewModel("unstable-at-zero")
	p := m.Place("p", 1)
	m.AddActivity(san.ActivityDef{
		Name: "spin0", Kind: san.Instant,
		Enabled: func(s *san.State) bool { return s.Get(p) == 1 },
		Reads:   []*san.Place{p},
		Cases:   []san.Case{{Prob: 1}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Spec{
		Model: m, Until: 1, Reps: 1, Seed: 1, MaxFailureFrac: 1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failed != 1 || res.Failures[0].Kind != FailureLivelock {
		t.Fatalf("failures = %+v, want one livelock", res.Failures)
	}
	if !errors.Is(res.Failures[0].Err, san.ErrUnstable) {
		t.Fatalf("err = %v, want ErrUnstable", res.Failures[0].Err)
	}
}

func TestFailureExitCodesDistinct(t *testing.T) {
	kinds := []FailureKind{
		FailureModel, FailurePanic, FailureDeadline,
		FailureBudget, FailureInvariant, FailureLivelock,
	}
	seen := make(map[int]FailureKind)
	for _, k := range kinds {
		code := k.ExitCode()
		if code < 10 {
			t.Fatalf("%v.ExitCode() = %d, want >= 10 (clear of generic codes)", k, code)
		}
		if prev, dup := seen[code]; dup {
			t.Fatalf("%v and %v share exit code %d", prev, k, code)
		}
		seen[code] = k
	}
	if FailureKind(99).ExitCode() != 1 {
		t.Fatalf("unknown kind exit code = %d, want 1", FailureKind(99).ExitCode())
	}
}
