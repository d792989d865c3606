package rsm

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"ituaval/internal/core"
	"ituaval/internal/groupcomm"
	"ituaval/internal/rng"
)

func smallParams() core.Params {
	p := core.DefaultParams()
	p.NumDomains = 2
	p.HostsPerDomain = 1
	p.NumApps = 1
	p.RepsPerApp = 2
	return p
}

// The live probe must agree with the model's improper/Byzantine predicates
// event for event under the default (Collude) adversary: zero divergences,
// and the live measures identical to the oracle measures.
func TestRunMatchesOracle(t *testing.T) {
	for _, cfg := range []struct {
		name string
		mut  func(*core.Params)
	}{
		{"2x1 domain-exclusion", func(p *core.Params) {}},
		{"2x1 host-exclusion", func(p *core.Params) { p.Policy = core.HostExclusion }},
		{"2x2x7 reps", func(p *core.Params) { p.HostsPerDomain = 2; p.NumDomains = 4; p.RepsPerApp = 7 }},
	} {
		p := smallParams()
		cfg.mut(&p)
		res, err := Run(context.Background(), Spec{Params: p, T: 6, Reps: 80, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if res.Failed > 0 {
			t.Fatalf("%s: %d failed replications: %v", cfg.name, res.Failed, res.Failures)
		}
		if res.Divergences != 0 {
			t.Errorf("%s: %d probe divergences in %d probes", cfg.name, res.Divergences, res.Probes)
		}
		if got, want := res.Unavail.Mean(), res.PredUnavail.Mean(); got != want {
			t.Errorf("%s: live unavail %v != oracle %v", cfg.name, got, want)
		}
		if got, want := res.Unrel.Mean(), res.PredUnrel.Mean(); got != want {
			t.Errorf("%s: live unrel %v != oracle %v", cfg.name, got, want)
		}
		if res.Probes == 0 {
			t.Errorf("%s: no probes issued", cfg.name)
		}
	}
}

// Same seed → identical results, regardless of worker count.
func TestRunDeterministic(t *testing.T) {
	run := func(workers int) *Result {
		res, err := Run(context.Background(), Spec{Params: smallParams(), T: 6, Reps: 40, Seed: 11, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(1), run(1), run(4)
	for name, pair := range map[string][2]float64{
		"unavail":  {a.Unavail.Mean(), b.Unavail.Mean()},
		"unrel":    {a.Unrel.Mean(), b.Unrel.Mean()},
		"excl":     {a.FracExcl.Mean(), b.FracExcl.Mean()},
		"workers4": {a.Unavail.Mean(), c.Unavail.Mean()},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s: %v != %v", name, pair[0], pair[1])
		}
	}
	if a.Probes != b.Probes || a.Probes != c.Probes {
		t.Errorf("probe counts differ: %d %d %d", a.Probes, b.Probes, c.Probes)
	}
}

// A non-default adversary (Silent) is weaker than the model's worst case:
// the live unreliability can only be at or below the oracle's.
func TestRunSilentAdversaryBoundedByModel(t *testing.T) {
	spec := Spec{
		Params: smallParams(), T: 6, Reps: 60, Seed: 13,
		Behavior: func(int, *rng.Stream) groupcomm.Behavior { return groupcomm.Silent{} },
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if live, oracle := res.Unrel.Mean(), res.PredUnrel.Mean(); live > oracle {
		t.Errorf("silent adversary beat the worst-case model: live %v > oracle %v", live, oracle)
	}
}

// Exhausting the event budget degrades to recorded failures, not a hang,
// and the failure fraction gate turns them into an error.
func TestRunEventBudgetClassified(t *testing.T) {
	spec := Spec{Params: smallParams(), T: 6, Reps: 10, Seed: 3, MaxEvents: 2, MaxFailureFrac: 1}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("budget exhaustion should degrade, not error: %v", err)
	}
	if res.Failures["event-budget"] == 0 {
		t.Fatalf("no event-budget failures recorded: %+v", res.Failures)
	}
	// With the default 5% gate the same run errors out.
	spec.MaxFailureFrac = 0
	if _, err := Run(context.Background(), spec); err == nil {
		t.Fatal("failure fraction above the budget did not error")
	}
	// One budget failure in 40 (2.5%) passes the default gate, and a
	// negative fraction tolerates none.
	spec = Spec{Params: smallParams(), T: 6, Reps: 40, Seed: 3, MaxEvents: 20}
	res, err = Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("2.5%% failures under the default 5%% gate: %v", err)
	}
	if res.Failed == 0 || float64(res.Failed) > 0.05*float64(spec.Reps) {
		t.Fatalf("%d of %d replications failed; the case needs a fraction in (0, 5%%]", res.Failed, spec.Reps)
	}
	spec.MaxFailureFrac = -1
	if _, err := Run(context.Background(), spec); err == nil {
		t.Fatal("a negative MaxFailureFrac tolerated a failed replication")
	}
}

// A non-finite or negative horizon is rejected up front instead of
// returning NaN measures or running the default horizon.
func TestRunRejectsNonFiniteHorizon(t *testing.T) {
	for _, c := range []struct {
		name string
		T    float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
		{"-1", -1},
	} {
		res, err := Run(context.Background(), Spec{Params: smallParams(), T: c.T, Reps: 2, Seed: 1})
		if err == nil {
			t.Errorf("T = %s accepted (Unavail mean %v)", c.name, res.Unavail.Mean())
		}
	}
}

// A cancelled context aborts the run promptly instead of hanging.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(ctx, Spec{Params: smallParams(), T: 6, Reps: 5000, Seed: 5})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return")
	}
}

// panicky is a Byzantine script that crashes the replication it runs in.
type panicky struct{}

func (panicky) Act(groupcomm.ProcessID, []groupcomm.ProcessID, int, []groupcomm.Message) []groupcomm.Message {
	panic("panicky behavior")
}

// A panicking replication is recorded as a "panic" failure that keeps the
// first (lowest-index) panic's value and stack on the result, at any worker
// count, and the diagnostics stay out of the serialized result.
func TestRunPanicKeepsValueAndStack(t *testing.T) {
	spec := Spec{
		Params: smallParams(), T: 6, Reps: 12, Seed: 31, MaxFailureFrac: 1,
		Behavior: func(int, *rng.Stream) groupcomm.Behavior { return panicky{} },
	}
	filled := spec
	filled.fill()
	first := -1
	for rep := 0; rep < spec.Reps && first < 0; rep++ {
		if runRep(context.Background(), filled, rep, rng.New(spec.Seed).Derive(uint64(rep))).fail == "panic" {
			first = rep
		}
	}
	if first < 0 {
		t.Fatal("no replication corrupted a replica; pick another seed")
	}
	for _, workers := range []int{1, 3} {
		spec.Workers = workers
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		p := res.Panic
		if res.Failures["panic"] == 0 || p == nil {
			t.Fatalf("workers=%d: failures %v, panic %+v", workers, res.Failures, p)
		}
		if p.Rep != first || p.Value != "panicky behavior" {
			t.Errorf("workers=%d: panic in rep %d with %v, want rep %d with %q", workers, p.Rep, p.Value, first, "panicky behavior")
		}
		if !strings.Contains(string(p.Stack), "panicky.Act") {
			t.Errorf("workers=%d: stack does not name the panicking Act:\n%s", workers, p.Stack)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), "panicky") {
			t.Errorf("workers=%d: panic diagnostics serialized: %s", workers, data)
		}
	}
	// Over the failure budget, the error names the panicking replication.
	spec.MaxFailureFrac = 0
	if _, err := Run(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "panicky behavior") {
		t.Errorf("budget error %v does not carry the panic value", err)
	}
}
