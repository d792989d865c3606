package ituadirect

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ituaval/internal/core"
	"ituaval/internal/reward"
	"ituaval/internal/rng"
	"ituaval/internal/sim"
	"ituaval/internal/stats"
)

func testParams() core.Params {
	p := core.DefaultParams()
	p.NumDomains = 4
	p.HostsPerDomain = 2
	p.NumApps = 3
	p.RepsPerApp = 4
	return p
}

func TestNoAttacksNoDamage(t *testing.T) {
	p := testParams()
	p.TotalAttackRate = 0
	p.TotalFalseAlarmRate = 0
	res, err := Run(p, rng.New(1), []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnavailTime[0] != 0 || res.UnavailTime[1] != 0 {
		t.Fatalf("unavailability with no attacks: %v", res.UnavailTime)
	}
	if res.ByzantineBy[1] || res.FracDomainsExcluded[1] != 0 {
		t.Fatal("damage with no attacks")
	}
	if res.RunningAtEnd != p.RepsPerApp {
		t.Fatalf("running = %d", res.RunningAtEnd)
	}
}

func TestRunValidation(t *testing.T) {
	p := testParams()
	p.NumDomains = 0
	if _, err := Run(p, rng.New(1), []float64{1}); err == nil {
		t.Fatal("invalid params accepted")
	}
	for _, horizons := range [][]float64{
		nil, {}, {math.NaN()}, {math.Inf(1)}, {-1}, {0}, {5, math.NaN()}, {10, 5},
	} {
		if _, err := RunContext(context.Background(), testParams(), rng.New(1), horizons); err == nil {
			t.Errorf("horizons %v accepted", horizons)
		}
	}
	if _, err := Run(testParams(), rng.New(1), []float64{5, 5, 10}); err != nil {
		t.Fatalf("ascending horizons with a repeat rejected: %v", err)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	p := testParams()
	a, err := Run(p, rng.New(99), []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, rng.New(99), []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if a.UnavailTime[0] != b.UnavailTime[0] || a.RunningAtEnd != b.RunningAtEnd {
		t.Fatal("same seed produced different trajectories")
	}
}

// TestCRNDeterministicForSeed: a policy comparison runs both policies from
// one seed, so each policy's trajectory must be reproducible from that seed
// at every horizon — under corruption and domain spread, where most draws
// are made.
func TestCRNDeterministicForSeed(t *testing.T) {
	for _, policy := range []core.Policy{core.DomainExclusion, core.HostExclusion} {
		p := core.DefaultParams()
		p.NumDomains = 6
		p.HostsPerDomain = 2
		p.NumApps = 2
		p.RepsPerApp = 5
		p.CorruptionMult = 5
		p.DomainSpreadRate = 2
		p.Policy = policy
		horizons := []float64{1, 2, 4}
		a, err := Run(p, rng.New(55), horizons)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(p, rng.New(55), horizons)
		if err != nil {
			t.Fatal(err)
		}
		for i := range horizons {
			if a.UnavailTime[i] != b.UnavailTime[i] || a.ByzantineBy[i] != b.ByzantineBy[i] {
				t.Fatalf("policy %v, horizon %v: same seed produced different trajectories", policy, horizons[i])
			}
		}
		if a.RunningAtEnd != b.RunningAtEnd {
			t.Fatalf("policy %v: same seed produced different final states", policy)
		}
	}
}

func TestStateConsistencyAfterRun(t *testing.T) {
	// White-box: after many runs, internal counters must match recounts.
	root := rng.New(7)
	for i := 0; i < 200; i++ {
		p := testParams()
		if i%2 == 1 {
			p.Policy = core.HostExclusion
		}
		s := mustNew(t, p, root.Derive(uint64(i)))
		if _, err := s.run(context.Background(), []float64{8}); err != nil {
			t.Fatal(err)
		}
		for a := range s.onHost {
			running, undet := 0, 0
			for r := range s.onHost[a] {
				g := s.onHost[a][r]
				if g < 0 {
					continue
				}
				running++
				if s.hostExcluded[g] {
					t.Fatalf("rep %d/%d on excluded host", a, r)
				}
				if s.repCorrupt[a][r] && !s.repConvicted[a][r] {
					undet++
				}
			}
			if running != s.running[a] || undet != s.undet[a] {
				t.Fatalf("rep %d: counted running=%d undet=%d, tracked %d/%d",
					a, running, undet, s.running[a], s.undet[a])
			}
		}
		for d := range s.domExcluded {
			if !s.domExcluded[d] {
				continue
			}
			for h := 0; h < p.HostsPerDomain; h++ {
				if !s.hostExcluded[d*p.HostsPerDomain+h] {
					t.Fatal("excluded domain has live host")
				}
			}
		}
	}
}

// aggregate runs the direct simulator nReps times and returns accumulators
// for unavailability over [0,T], unreliability by T, and fraction of
// domains excluded at T.
func aggregate(t *testing.T, p core.Params, nReps int, T float64, seed uint64) (unavail, unrel, excl, corrFrac *stats.Accumulator) {
	t.Helper()
	root := rng.New(seed)
	unavail, unrel, excl, corrFrac = &stats.Accumulator{}, &stats.Accumulator{}, &stats.Accumulator{}, &stats.Accumulator{}
	for i := 0; i < nReps; i++ {
		res, err := Run(p, root.Derive(uint64(i)), []float64{T})
		if err != nil {
			t.Fatal(err)
		}
		unavail.Add(res.UnavailTime[0] / T)
		if res.ByzantineBy[0] {
			unrel.Add(1)
		} else {
			unrel.Add(0)
		}
		excl.Add(res.FracDomainsExcluded[0])
		if !math.IsNaN(res.CorruptFracAtExclusion) {
			corrFrac.Add(res.CorruptFracAtExclusion)
		}
	}
	return unavail, unrel, excl, corrFrac
}

// TestReplicate: Replicate folds the same streams in the same order as
// per-replication Run calls, so its accumulators are bit-identical to
// theirs at every worker count, and an invalid configuration fails at the
// first replication.
func TestReplicate(t *testing.T) {
	p := testParams()
	const T, reps, seed = 6.0, 200, 77
	unavail, unrel, excl, _ := aggregate(t, p, reps, T, seed)
	for _, workers := range []int{1, 2, 8} {
		got, err := Replicate(context.Background(), p, seed, reps, T, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			got, want *stats.Accumulator
		}{
			{"Unavail", &got.Unavail, unavail}, {"Unrel", &got.Unrel, unrel}, {"FracExcl", &got.FracExcl, excl},
		} {
			if *c.got != *c.want {
				t.Errorf("workers %d, %s: Replicate %+v, per-replication Run %+v", workers, c.name, *c.got, *c.want)
			}
		}
	}
	p.NumDomains = 0
	for _, workers := range []int{1, 2, 8} {
		if e, err := Replicate(context.Background(), p, seed, reps, T, workers); err == nil || e != nil {
			t.Fatalf("workers %d, invalid params: estimate %v, err %v; want nil and an error", workers, e, err)
		}
	}
}

// TestReplicateCancel: a context cancelled before or during the run makes
// Replicate return its error and no estimate, and leaves no worker running.
func TestReplicateCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if e, err := Replicate(ctx, testParams(), 1, 100, 6, 2); !errors.Is(err, context.Canceled) || e != nil {
		t.Fatalf("cancelled before the run: estimate %v, err %v; want nil and context.Canceled", e, err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	defer cancel()
	if e, err := Replicate(ctx, testParams(), 1, 100000, 6, 2); !errors.Is(err, context.Canceled) || e != nil {
		t.Fatalf("cancelled during the run: estimate %v, err %v; want nil and context.Canceled", e, err)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestForEachRepLowestFailure pins the failure rule of Replicate's pool:
// no valid input fails one replication alone, so it drives the dispatch
// helper directly. Replications 5 and 9 fail, each in its own order: 5
// first, 9 first (the two wait on each other), or as scheduled. The error
// is always replication 5's and every lower replication ran. Left to the
// schedule, dispatch stops soon after the first failure instead of running
// all n.
func TestForEachRepLowestFailure(t *testing.T) {
	errAt := map[int]error{5: errors.New("fail 5"), 9: errors.New("fail 9")}
	const n = 20000
	type order int
	const (
		scheduled order = iota
		lowerFirst
		higherFirst
	)
	for _, workers := range []int{1, 2, 8} {
		for _, ord := range []order{scheduled, lowerFirst, higherFirst} {
			if workers == 1 && ord != scheduled {
				continue // one worker cannot run 5 and 9 at once
			}
			for range 20 {
				var calls atomic.Int64
				ran := make([]atomic.Bool, n)
				nineStarted, fiveDone, nineDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
				err := forEachRep(context.Background(), n, workers, shared(func(rep int) error {
					calls.Add(1)
					ran[rep].Store(true)
					switch {
					case rep == 5 && ord == lowerFirst:
						<-nineStarted
						defer close(fiveDone)
					case rep == 9 && ord == lowerFirst:
						close(nineStarted)
						<-fiveDone
					case rep == 5 && ord == higherFirst:
						<-nineDone
					case rep == 9 && ord == higherFirst:
						defer close(nineDone)
					}
					return errAt[rep]
				}))
				if !errors.Is(err, errAt[5]) || !strings.Contains(err.Error(), "replication 5:") {
					t.Fatalf("workers %d, order %d: err %v, want replication 5's", workers, ord, err)
				}
				for rep := 0; rep < 5; rep++ {
					if !ran[rep].Load() {
						t.Fatalf("workers %d, order %d: replication %d below the failure did not run", workers, ord, rep)
					}
				}
				if c := calls.Load(); ord == scheduled && c > 1000 {
					t.Fatalf("workers %d: %d of %d replications ran despite a failure at 5", workers, c, n)
				}
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := forEachRep(ctx, n, 2, shared(func(int) error { t.Error("replication ran under a cancelled context"); return nil }))
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "replication 0:") {
		t.Fatalf("cancelled context: err %v, want replication 0's context.Canceled", err)
	}
}

// shared gives every worker of forEachRep the same run.
func shared(run func(rep int) error) func() func(rep int) error {
	return func() func(rep int) error { return run }
}

// TestRunAllocs gates the direct simulator's per-event work at the
// live-xcheck configuration (the Figure-5 topology at spread 4 under
// domain exclusion, T = 10): placement, recovery and the transition
// enumeration allocate nothing, and a reset reuses the Process's state,
// so a replication on a Replicate worker's Process allocates only the
// Result it returns. RunContext still builds a Process per call.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const (
		replicateAllocsPerRep = 3  // the Result's three slices; 67 when each replication built its Process
		runAllocsPerRep       = 67 // measured; 326 when every event allocated its candidate lists
	)
	p := core.DefaultParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 10, 3, 4, 7
	p.CorruptionMult = 5
	p.DomainSpreadRate = 4
	p.Policy = core.DomainExclusion
	root := rng.New(3)
	horizons := []float64{10}
	const runs = 200
	streams := make([]*rng.Stream, runs+1) // AllocsPerRun runs once more to warm up
	for i := range streams {
		streams[i] = root.Derive(uint64(i))
	}
	s, err := newProcess(p, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	rep := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := s.replicate(context.Background(), streams[rep], horizons); err != nil {
			t.Fatal(err)
		}
		rep++
	})
	t.Logf("%.1f allocations per reset replication", allocs)
	if allocs > replicateAllocsPerRep {
		t.Fatalf("a reset replication allocates %v times, want at most %d", allocs, replicateAllocsPerRep)
	}
	rep = 0
	allocs = testing.AllocsPerRun(runs, func() {
		if _, err := RunContext(context.Background(), p, root.Derive(uint64(rep)), horizons); err != nil {
			t.Fatal(err)
		}
		rep++
	})
	t.Logf("%.1f allocations per RunContext replication", allocs)
	if allocs > runAllocsPerRep {
		t.Fatalf("RunContext allocates %v times per replication, want at most %d", allocs, runAllocsPerRep)
	}
}

// TestResetMatchesNew: a Process reset onto a stream after running a
// replication holds exactly the state New builds on an equal stream, so
// the trajectories a Replicate worker runs are those of fresh Processes.
func TestResetMatchesNew(t *testing.T) {
	p := testParams()
	p.PartitionRate, p.PartitionHealRate = 0.5, 1
	p.CampaignRate, p.CampaignSize, p.CampaignProb = 0.3, 3, 0.5
	p.RepairCrew = 1
	for _, placement := range []core.Placement{core.UniformPlacement, core.LeastLoadedPlacement, core.WeightedRandomPlacement} {
		p.Placement = placement
		root := rng.New(11)
		s, err := newProcess(p, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		for rep := range 20 {
			fresh, err := New(p, root.Derive(uint64(rep)), Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			s.reset(root.Derive(uint64(rep)))
			if !sameState(s, fresh) {
				t.Fatalf("placement %v, rep %d: reset state differs from New's\nreset %+v\nnew   %+v", placement, rep, *s, *fresh)
			}
			if _, err := s.run(context.Background(), []float64{20}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sameState compares two Processes on everything but their scratch
// buffers, which carry no state between events.
func sameState(a, b *Process) bool {
	a2, b2 := *a, *b
	for _, x := range []*Process{&a2, &b2} {
		x.buf, x.total, x.perm, x.hosts, x.weights = nil, 0, nil, nil, nil
	}
	ars, brs := *a2.rs, *b2.rs
	a2.rs, b2.rs = nil, nil
	return ars == brs && reflect.DeepEqual(a2, b2)
}

// TestAgreesWithSANModel is the X1 cross-validation experiment: the SAN
// encoding (internal/core + internal/sim) and this direct SSA encoding of
// the ITUA process must agree on every measure within statistical error.
func TestAgreesWithSANModel(t *testing.T) {
	for _, policy := range []core.Policy{core.DomainExclusion, core.HostExclusion} {
		p := testParams()
		p.Policy = policy
		const T, reps = 6.0, 3000

		m, err := core.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		sanRes, err := sim.Run(sim.Spec{
			Model: m.SAN, Until: T, Reps: reps, Seed: 1001,
			Vars: []reward.Var{
				m.Unavailability("unavail", 0, 0, T),
				m.Unreliability("unrel", 0, T),
				m.FracDomainsExcluded("excl", T),
				m.FracCorruptHostsAtExclusion("corrfrac", T),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		dUnavail, dUnrel, dExcl, dCorr := aggregate(t, p, reps, T, 2002)

		compare := func(name string, san sim.Estimate, direct *stats.Accumulator) {
			t.Helper()
			if direct.N() == 0 && san.N == 0 {
				return
			}
			tol := 3*(san.HalfWidth95+direct.HalfWidth(0.95)) + 0.01
			if diff := math.Abs(san.Mean - direct.Mean()); diff > tol {
				t.Errorf("%s policy %v: SAN %v vs direct %v (diff %v > tol %v)",
					name, policy, san.Mean, direct.Mean(), diff, tol)
			}
		}
		compare("unavailability", sanRes.MustGet("unavail"), dUnavail)
		compare("unreliability", sanRes.MustGet("unrel"), dUnrel)
		compare("fracDomainsExcluded", sanRes.MustGet("excl"), dExcl)
		if policy == core.DomainExclusion {
			compare("corruptFracAtExclusion", sanRes.MustGet("corrfrac"), dCorr)
		}
	}
}

func TestAgreementUnderStress(t *testing.T) {
	// High spread + host exclusion, the regime of study 3.
	p := testParams()
	p.Policy = core.HostExclusion
	p.DomainSpreadRate = 8
	p.CorruptionMult = 5
	const T, reps = 6.0, 3000

	m, err := core.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	sanRes, err := sim.Run(sim.Spec{
		Model: m.SAN, Until: T, Reps: reps, Seed: 31,
		Vars: []reward.Var{
			m.Unavailability("unavail", 0, 0, T),
			m.Unreliability("unrel", 0, T),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dUnavail, dUnrel, _, _ := aggregate(t, p, reps, T, 32)
	for _, c := range []struct {
		name   string
		san    sim.Estimate
		direct *stats.Accumulator
	}{
		{"unavailability", sanRes.MustGet("unavail"), dUnavail},
		{"unreliability", sanRes.MustGet("unrel"), dUnrel},
	} {
		tol := 3*(c.san.HalfWidth95+c.direct.HalfWidth(0.95)) + 0.01
		if diff := math.Abs(c.san.Mean - c.direct.Mean()); diff > tol {
			t.Errorf("%s: SAN %v vs direct %v (diff %v > tol %v)",
				c.name, c.san.Mean, c.direct.Mean(), diff, tol)
		}
	}
}
