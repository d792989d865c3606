package sim

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"ituaval/internal/reward"
	"ituaval/internal/rng"
	"ituaval/internal/san"
)

// buildMM1K constructs an M/M/1/K queue as a SAN: place q holds the queue
// length; arrive (rate lambda) is enabled while q < K; serve (rate mu) while
// q > 0.
func buildMM1K(t testing.TB, lambda, mu float64, k int) (*san.Model, *san.Place) {
	t.Helper()
	m := san.NewModel("mm1k")
	q := m.Place("q", 0)
	m.AddActivity(san.ActivityDef{
		Name: "arrive", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return lambda },
		Enabled: func(s *san.State) bool { return s.Int(q) < k },
		Reads:   []*san.Place{q},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Add(q, 1) }}},
	})
	m.AddActivity(san.ActivityDef{
		Name: "serve", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return mu },
		Enabled: func(s *san.State) bool { return s.Get(q) > 0 },
		Reads:   []*san.Place{q},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Add(q, -1) }}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m, q
}

// mm1kStationary returns the stationary distribution of M/M/1/K.
func mm1kStationary(lambda, mu float64, k int) []float64 {
	rho := lambda / mu
	pi := make([]float64, k+1)
	total := 0.0
	for n := 0; n <= k; n++ {
		pi[n] = math.Pow(rho, float64(n))
		total += pi[n]
	}
	for n := range pi {
		pi[n] /= total
	}
	return pi
}

func TestMM1KAgainstAnalytic(t *testing.T) {
	const lambda, mu, k = 2.0, 3.0, 5
	m, q := buildMM1K(t, lambda, mu, k)
	pi := mm1kStationary(lambda, mu, k)
	wantLen := 0.0
	for n, p := range pi {
		wantLen += float64(n) * p
	}
	// Long window so the initial transient is negligible.
	vars := []reward.Var{
		&reward.TimeAverage{VarName: "len", F: func(s *san.State) float64 { return float64(s.Get(q)) }, From: 50, To: 400},
		&reward.TimeAverage{VarName: "full", F: func(s *san.State) float64 {
			if s.Int(q) == k {
				return 1
			}
			return 0
		}, From: 50, To: 400},
	}
	res, err := Run(Spec{Model: m, Until: 400, Reps: 64, Seed: 1, Vars: vars, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	lenEst := res.MustGet("len")
	if math.Abs(lenEst.Mean-wantLen) > 3*lenEst.HalfWidth95+0.02 {
		t.Fatalf("mean queue length %v ± %v, analytic %v", lenEst.Mean, lenEst.HalfWidth95, wantLen)
	}
	fullEst := res.MustGet("full")
	if math.Abs(fullEst.Mean-pi[k]) > 3*fullEst.HalfWidth95+0.01 {
		t.Fatalf("P(full) %v ± %v, analytic %v", fullEst.Mean, fullEst.HalfWidth95, pi[k])
	}
}

// buildTwoState builds a failure/repair model: up=1 initially, fail rate
// lambda, repair rate mu.
func buildTwoState(t testing.TB, lambda, mu float64) (*san.Model, *san.Place) {
	t.Helper()
	m := san.NewModel("twostate")
	up := m.Place("up", 1)
	m.AddActivity(san.ActivityDef{
		Name: "fail", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return lambda },
		Enabled: func(s *san.State) bool { return s.Get(up) == 1 },
		Reads:   []*san.Place{up},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(up, 0) }}},
	})
	m.AddActivity(san.ActivityDef{
		Name: "repair", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return mu },
		Enabled: func(s *san.State) bool { return s.Get(up) == 0 },
		Reads:   []*san.Place{up},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(up, 1) }}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m, up
}

func TestTwoStateIntervalUnavailability(t *testing.T) {
	// Analytic interval unavailability over [0,T] starting up:
	// U(t) = λ/(λ+μ) (1 - e^{-(λ+μ)t}); avg over [0,T] =
	// λ/(λ+μ) [1 - (1 - e^{-(λ+μ)T})/((λ+μ)T)].
	const lambda, mu, T = 0.5, 2.0, 8.0
	s := lambda + mu
	want := lambda / s * (1 - (1-math.Exp(-s*T))/(s*T))
	m, up := buildTwoState(t, lambda, mu)
	vars := []reward.Var{
		&reward.TimeAverage{VarName: "unavail", F: func(st *san.State) float64 {
			if st.Get(up) == 0 {
				return 1
			}
			return 0
		}, From: 0, To: T},
	}
	res, err := Run(Spec{Model: m, Until: T, Reps: 4000, Seed: 2, Vars: vars})
	if err != nil {
		t.Fatal(err)
	}
	est := res.MustGet("unavail")
	if math.Abs(est.Mean-want) > 3*est.HalfWidth95 {
		t.Fatalf("interval unavailability %v ± %v, analytic %v", est.Mean, est.HalfWidth95, want)
	}
}

func TestTwoStateFirstPassage(t *testing.T) {
	// P(fail by T) = 1 - e^{-λT} starting up.
	const lambda, mu, T = 0.3, 5.0, 4.0
	want := 1 - math.Exp(-lambda*T)
	m, up := buildTwoState(t, lambda, mu)
	vars := []reward.Var{
		&reward.FirstPassage{VarName: "unrel", Pred: func(st *san.State) bool { return st.Get(up) == 0 }, By: T},
	}
	res, err := Run(Spec{Model: m, Until: T, Reps: 6000, Seed: 3, Vars: vars})
	if err != nil {
		t.Fatal(err)
	}
	est := res.MustGet("unrel")
	if math.Abs(est.Mean-want) > 3*est.HalfWidth95 {
		t.Fatalf("unreliability %v ± %v, analytic %v", est.Mean, est.HalfWidth95, want)
	}
}

func TestReactivationOnRateChange(t *testing.T) {
	// Activity "work" has rate 100 while boost=1, else 0.001. "booster"
	// fires at rate 10, setting boost=1 almost surely well before t=1.5.
	// The work activity resamples at that moment with the fast rate, so it
	// almost surely completes before t=1.5; kept, its original (slow)
	// sample would almost surely not.
	build := func() (*san.Model, *san.Place) {
		m := san.NewModel("react")
		boost := m.Place("boost", 0)
		done := m.Place("done", 0)
		m.AddActivity(san.ActivityDef{
			Name: "booster", Kind: san.Timed,
			Rate:    func(*san.State) float64 { return 10 },
			Enabled: func(s *san.State) bool { return s.Get(boost) == 0 },
			Reads:   []*san.Place{boost},
			Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(boost, 1) }}},
		})
		m.AddActivity(san.ActivityDef{
			Name: "work", Kind: san.Timed,
			Rate: func(s *san.State) float64 {
				if s.Get(boost) == 1 {
					return 100
				}
				return 0.001
			},
			Enabled: func(s *san.State) bool { return s.Get(done) == 0 },
			Reads:   []*san.Place{boost, done},
			Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(done, 1) }}},
		})
		if err := m.Finalize(); err != nil {
			t.Fatal(err)
		}
		return m, done
	}
	m, done := build()
	vars := []reward.Var{
		&reward.AtTime{VarName: "done", F: func(s *san.State) float64 { return float64(s.Get(done)) }, T: 1.5},
	}
	res, err := Run(Spec{Model: m, Until: 1.5, Reps: 400, Seed: 5, Vars: vars, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if p := res.MustGet("done").Mean; p < 0.95 {
		t.Fatalf("completion prob %v after the rate change, want ~1", p)
	}
}

func TestReproducibility(t *testing.T) {
	m, q := buildMM1K(t, 2, 3, 5)
	vars := func() []reward.Var {
		return []reward.Var{
			&reward.TimeAverage{VarName: "len", F: func(s *san.State) float64 { return float64(s.Get(q)) }, From: 0, To: 50},
		}
	}
	r1, err := Run(Spec{Model: m, Until: 50, Reps: 40, Seed: 42, Vars: vars(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Spec{Model: m, Until: 50, Reps: 40, Seed: 42, Vars: vars(), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Trajectories are per-replication deterministic; aggregation order
	// across workers differs, so allow float-associativity noise only.
	if d := math.Abs(r1.MustGet("len").Mean - r2.MustGet("len").Mean); d > 1e-9 {
		t.Fatalf("results differ across worker counts by %v: %v vs %v",
			d, r1.MustGet("len").Mean, r2.MustGet("len").Mean)
	}
	r3, err := Run(Spec{Model: m, Until: 50, Reps: 40, Seed: 43, Vars: vars(), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r1.MustGet("len").Mean == r3.MustGet("len").Mean {
		t.Fatal("different seeds gave identical results")
	}
}

func TestValidateCatchesUndeclaredRead(t *testing.T) {
	m := san.NewModel("bad")
	a := m.Place("a", 1)
	b := m.Place("b", 1)
	m.AddActivity(san.ActivityDef{
		Name: "sneaky", Kind: san.Timed,
		Rate: func(*san.State) float64 { return 1 },
		// reads b but declares only a
		Enabled: func(s *san.State) bool { return s.Get(a) > 0 && s.Get(b) > 0 },
		Reads:   []*san.Place{a},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(a, 0) }}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "undeclared place") {
			t.Fatalf("recover = %v, want undeclared-place panic", r)
		}
	}()
	eng := NewEngine(m, true)
	_ = eng.RunOnce(1, rng.New(1), nil, 0)
}

// buildHiddenInstant builds a model whose instantaneous predicate reads
// place b without declaring it: a timed "arm" writes only b, which enables
// "fire". A scan that trusts the declared reads never evaluates "fire"
// after "arm", so only validate mode can notice. With viaMarkings the
// predicate reads b through the raw marking vector, which read tracing
// does not attribute to a place, and the full-scan comparison must catch
// it instead.
func buildHiddenInstant(t *testing.T, viaMarkings bool) *san.Model {
	t.Helper()
	m := san.NewModel("hidden")
	a := m.Place("a", 1)
	b := m.Place("b", 0)
	m.AddActivity(san.ActivityDef{
		Name: "arm", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return 1 },
		Enabled: func(s *san.State) bool { return s.Get(b) == 0 },
		Reads:   []*san.Place{b},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(b, 1) }}},
	})
	m.AddActivity(san.ActivityDef{
		Name: "fire", Kind: san.Instant,
		Enabled: func(s *san.State) bool {
			if viaMarkings {
				return s.Get(a) > 0 && s.Markings()[b.Index()] > 0
			}
			return s.Get(a) > 0 && s.Get(b) > 0
		},
		Reads: []*san.Place{a},
		Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(a, 0) }}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestValidateCatchesUndeclaredInstantRead: validate mode read-traces the
// instantaneous predicates and checks the incremental scan against a full
// one, so an undeclared read there fails the replication instead of
// silently skipping an enabling.
func TestValidateCatchesUndeclaredInstantRead(t *testing.T) {
	for _, tc := range []struct {
		viaMarkings bool
		want        string
	}{
		{false, `activity "fire" Enabled read undeclared place "b"`},
		{true, "incremental instantaneous scan"},
	} {
		res, err := Run(Spec{Model: buildHiddenInstant(t, tc.viaMarkings), Until: 100, Reps: 4, Seed: 1,
			Validate: true, MaxFailureFrac: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != res.Reps {
			t.Fatalf("viaMarkings=%v: %d of %d replications failed, want all", tc.viaMarkings, res.Failed, res.Reps)
		}
		for _, f := range res.Failures {
			if msg := fmt.Sprint(f.PanicValue); f.Kind != FailurePanic || !strings.Contains(msg, tc.want) {
				t.Fatalf("viaMarkings=%v: failure %v %q, want a panic containing %q", tc.viaMarkings, f.Kind, msg, tc.want)
			}
		}
	}
}

// TestValidateCatchesWholeMarkingTimedRead: a timed activity whose Enabled
// or Rate reads through State.Markings may depend on any place, so validate
// mode fails the replication unless the activity declares every place.
// Here "watch" reads b that way but declares only a, so the write of b by
// "arm" would never refresh it.
func TestValidateCatchesWholeMarkingTimedRead(t *testing.T) {
	for _, tc := range []struct {
		what       string
		declareAll bool
	}{{"Enabled", false}, {"Rate", false}, {"Enabled", true}, {"Rate", true}} {
		m := san.NewModel("hidden-timed")
		a := m.Place("a", 1)
		b := m.Place("b", 0)
		m.AddActivity(san.ActivityDef{
			Name: "arm", Kind: san.Timed,
			Rate:    func(*san.State) float64 { return 1 },
			Enabled: func(s *san.State) bool { return s.Get(b) == 0 },
			Reads:   []*san.Place{b},
			Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(b, 1) }}},
		})
		watch := san.ActivityDef{
			Name: "watch", Kind: san.Timed,
			Rate:    func(*san.State) float64 { return 1 },
			Enabled: func(s *san.State) bool { return s.Get(a) > 0 },
			Reads:   []*san.Place{a},
			Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(a, 0) }}},
		}
		if tc.what == "Enabled" {
			watch.Enabled = func(s *san.State) bool { return s.Get(a) > 0 && s.Markings()[b.Index()] > 0 }
		} else {
			watch.Rate = func(s *san.State) float64 { return 1 + float64(s.Markings()[b.Index()]) }
		}
		if tc.declareAll {
			watch.Reads = []*san.Place{a, b}
		}
		m.AddActivity(watch)
		if err := m.Finalize(); err != nil {
			t.Fatal(err)
		}
		res, err := Run(Spec{Model: m, Until: 100, Reps: 4, Seed: 1, Validate: true, MaxFailureFrac: 1})
		if err != nil {
			t.Fatal(err)
		}
		if tc.declareAll {
			if res.Failed != 0 {
				t.Fatalf("%s declaring every place: %d replications failed: %v", tc.what, res.Failed, &res.Failures[0])
			}
			continue
		}
		if res.Failed != res.Reps {
			t.Fatalf("%s: %d of %d replications failed, want all", tc.what, res.Failed, res.Reps)
		}
		want := fmt.Sprintf(`activity "watch" %s read the whole marking but does not declare place "b"`, tc.what)
		for _, f := range res.Failures {
			if msg := fmt.Sprint(f.PanicValue); f.Kind != FailurePanic || !strings.Contains(msg, want) {
				t.Fatalf("%s: failure %v %q, want a panic containing %q", tc.what, f.Kind, msg, want)
			}
		}
	}
}

// TestBadRateFailsReplication: an enabled timed activity whose rate is not
// finite and positive fails the replication with a model error naming the
// activity, whether it is enabled from the start or becomes enabled later.
// While disabled its rate is never asked for.
func TestBadRateFailsReplication(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1), -1, 0} {
		for _, later := range []bool{false, true} {
			m := san.NewModel("bad-rate")
			p := m.Place("p", 0)
			if later {
				m.AddActivity(san.ActivityDef{
					Name: "tick", Kind: san.Timed,
					Rate:    func(*san.State) float64 { return 1 },
					Enabled: func(s *san.State) bool { return s.Get(p) == 0 },
					Reads:   []*san.Place{p},
					Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(p, 1) }}},
				})
			}
			m.AddActivity(san.ActivityDef{
				Name: "bad", Kind: san.Timed,
				Rate: func(*san.State) float64 { return rate },
				Enabled: func(s *san.State) bool {
					return s.Get(p) == 1 || !later
				},
				Reads: []*san.Place{p},
				Cases: []san.Case{{Prob: 1}},
			})
			if err := m.Finalize(); err != nil {
				t.Fatal(err)
			}
			res, err := Run(Spec{Model: m, Until: 100, Reps: 3, Seed: 1, MaxFailureFrac: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != res.Reps {
				t.Fatalf("rate %v, later=%v: %d of %d replications failed, want all", rate, later, res.Failed, res.Reps)
			}
			for _, f := range res.Failures {
				if f.Kind != FailureModel || !errors.Is(f.Err, san.ErrRate) || !strings.Contains(f.Err.Error(), `"bad"`) {
					t.Fatalf("rate %v, later=%v: failure %v %v, want a model error wrapping san.ErrRate naming \"bad\"",
						rate, later, f.Kind, f.Err)
				}
			}
		}
	}
}

func TestSpecValidation(t *testing.T) {
	m, _ := buildMM1K(t, 1, 2, 3)
	if _, err := Run(Spec{Model: nil, Until: 1, Reps: 1}); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := Run(Spec{Model: m, Until: 1, Reps: 0}); err == nil {
		t.Fatal("zero reps accepted")
	}
	if _, err := Run(Spec{Model: m, Until: 0, Reps: 1}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	for _, until := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Run(Spec{Model: m, Until: until, Reps: 1}); err == nil {
			t.Fatalf("horizon %v accepted", until)
		}
	}
	unfinalized := san.NewModel("u")
	if _, err := Run(Spec{Model: unfinalized, Until: 1, Reps: 1}); err == nil {
		t.Fatal("unfinalized model accepted")
	}
}

func TestMaxFiringsGuard(t *testing.T) {
	m, _ := buildMM1K(t, 1000, 1000, 5)
	_, err := Run(Spec{Model: m, Until: 1000, Reps: 1, Seed: 1, MaxFirings: 100})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v, want exceeded-firings error", err)
	}
}

func TestInitHookAndInstantaneous(t *testing.T) {
	// Init hook seeds tokens; an instantaneous activity immediately moves
	// them before any timed firing; AtTime(0+) should see the stable state.
	m := san.NewModel("init")
	in := m.Place("in", 0)
	out := m.Place("out", 0)
	m.SetInit(func(ctx *san.Context) { ctx.State.Set(in, 3) })
	m.AddActivity(san.ActivityDef{
		Name: "mv", Kind: san.Instant,
		Enabled: func(s *san.State) bool { return s.Get(in) > 0 },
		Reads:   []*san.Place{in},
		Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
			ctx.State.Add(in, -1)
			ctx.State.Add(out, 1)
		}}},
	})
	m.AddActivity(san.ActivityDef{
		Name: "noop", Kind: san.Timed,
		Rate:    func(*san.State) float64 { return 0.0001 },
		Enabled: func(s *san.State) bool { return s.Get(out) < 100 },
		Reads:   []*san.Place{out},
		Cases:   []san.Case{{Prob: 1}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	vars := []reward.Var{
		&reward.AtTime{VarName: "out0", F: func(s *san.State) float64 { return float64(s.Get(out)) }, T: 0},
	}
	res, err := Run(Spec{Model: m, Until: 1, Reps: 2, Seed: 9, Vars: vars, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MustGet("out0").Mean; got != 3 {
		t.Fatalf("out at t=0 = %v, want 3 (init + stabilization before observers)", got)
	}
}

func TestEstimateStringAndSorted(t *testing.T) {
	m, q := buildMM1K(t, 1, 2, 3)
	vars := []reward.Var{
		&reward.TimeAverage{VarName: "b", F: func(s *san.State) float64 { return float64(s.Get(q)) }, From: 0, To: 1},
		&reward.Count{VarName: "a", Match: func(*san.Activity, int) bool { return true }, From: 0, To: 1},
	}
	res, err := Run(Spec{Model: m, Until: 1, Reps: 4, Seed: 6, Vars: vars})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Sorted(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Sorted() = %v", got)
	}
	if s := res.MustGet("a").String(); !strings.Contains(s, "a = ") {
		t.Fatalf("String() = %q", s)
	}
	if _, ok := res.Get("zzz"); ok {
		t.Fatal("Get of unknown name succeeded")
	}
}
