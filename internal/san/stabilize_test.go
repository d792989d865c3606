package san

import (
	"errors"
	"math"
	"testing"

	"ituaval/internal/rng"
)

// buildRace creates a model where n instantaneous activities race to claim
// a single token; winner i sets winner=i+1.
func buildRace(t *testing.T, n int) (*Model, *Place) {
	t.Helper()
	m := NewModel("race")
	token := m.Place("token", 1)
	winner := m.Place("winner", 0)
	for i := 0; i < n; i++ {
		i := i
		m.AddActivity(ActivityDef{
			Name: "claim" + string(rune('a'+i)), Kind: Instant,
			Enabled: func(s *State) bool { return s.Get(token) > 0 },
			Reads:   []*Place{token},
			Cases: []Case{{Prob: 1, Effect: func(ctx *Context) {
				ctx.State.Add(token, -1)
				ctx.State.Set(winner, Marking(i+1))
			}}},
		})
	}
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m, winner
}

func TestStabilizeUniformRace(t *testing.T) {
	m, winner := buildRace(t, 4)
	counts := [5]int{}
	const n = 40000
	root := rng.New(101)
	for i := 0; i < n; i++ {
		s := m.NewState()
		ctx := &Context{State: s, Rand: root.Derive(uint64(i))}
		fired, err := Stabilize(m, ctx)
		if err != nil || fired != 1 {
			t.Fatalf("fired=%d err=%v", fired, err)
		}
		counts[s.Get(winner)]++
	}
	if counts[0] != 0 {
		t.Fatal("some race had no winner")
	}
	for i := 1; i <= 4; i++ {
		got := float64(counts[i]) / n
		if math.Abs(got-0.25) > 0.02 {
			t.Fatalf("activity %d won fraction %v, want ~0.25", i, got)
		}
	}
}

func TestStabilizePriorityOrdering(t *testing.T) {
	m := NewModel("prio")
	token := m.Place("token", 1)
	order := m.Place("order", 0)
	// Low priority fires second: by then order is already 1, so it sets 12.
	m.AddActivity(ActivityDef{
		Name: "low", Kind: Instant, Priority: 1,
		Enabled: func(s *State) bool { return s.Get(token) == 0 && s.Get(order) == 1 },
		Reads:   []*Place{token, order},
		Cases:   []Case{{Prob: 1, Effect: func(ctx *Context) { ctx.State.Set(order, 12) }}},
	})
	m.AddActivity(ActivityDef{
		Name: "high", Kind: Instant, Priority: 5,
		Enabled: func(s *State) bool { return s.Get(token) > 0 },
		Reads:   []*Place{token},
		Cases: []Case{{Prob: 1, Effect: func(ctx *Context) {
			ctx.State.Add(token, -1)
			ctx.State.Set(order, 1)
		}}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	s := m.NewState()
	fired, err := Stabilize(m, &Context{State: s, Rand: rng.New(1)})
	if err != nil || fired != 2 {
		t.Fatalf("fired=%d err=%v", fired, err)
	}
	if s.Get(order) != 12 {
		t.Fatalf("order = %d, want 12 (high then low)", s.Get(order))
	}
}

func TestStabilizeDetectsLivelock(t *testing.T) {
	m := NewModel("livelock")
	p := m.Place("p", 1)
	m.AddActivity(ActivityDef{
		Name: "spin", Kind: Instant,
		Enabled: func(s *State) bool { return s.Get(p) > 0 },
		Reads:   []*Place{p},
		Cases:   []Case{{Prob: 1}}, // no effect: stays enabled forever
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	_, err := Stabilize(m, &Context{State: m.NewState(), Rand: rng.New(1)})
	if !errors.Is(err, ErrUnstable) {
		t.Fatalf("err = %v, want ErrUnstable", err)
	}
}

func TestEnumerateStable(t *testing.T) {
	// Token claimed by one of two equally weighted activities, the first of
	// which branches into two cases 0.3/0.7: stable outcomes
	// winner=1&case=1 (0.15), winner=1&case=2 (0.35), winner=2 (0.5).
	m := NewModel("enum")
	token := m.Place("token", 1)
	out := m.Place("out", 0)
	m.AddActivity(ActivityDef{
		Name: "a", Kind: Instant,
		Enabled: func(s *State) bool { return s.Get(token) > 0 },
		Reads:   []*Place{token},
		Cases: []Case{
			{Prob: 0.3, Effect: func(ctx *Context) { ctx.State.Add(token, -1); ctx.State.Set(out, 1) }},
			{Prob: 0.7, Effect: func(ctx *Context) { ctx.State.Add(token, -1); ctx.State.Set(out, 2) }},
		},
	})
	m.AddActivity(ActivityDef{
		Name: "b", Kind: Instant,
		Enabled: func(s *State) bool { return s.Get(token) > 0 },
		Reads:   []*Place{token},
		Cases:   []Case{{Prob: 1, Effect: func(ctx *Context) { ctx.State.Add(token, -1); ctx.State.Set(out, 3) }}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	sucs, err := EnumerateStable(m, m.NewState())
	if err != nil {
		t.Fatal(err)
	}
	probs := map[Marking]float64{}
	total := 0.0
	for _, suc := range sucs {
		probs[suc.M[out.Index()]] += suc.Prob
		total += suc.Prob
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("probabilities sum to %v", total)
	}
	want := map[Marking]float64{1: 0.15, 2: 0.35, 3: 0.5}
	for k, w := range want {
		if math.Abs(probs[k]-w) > 1e-12 {
			t.Fatalf("P(out=%d) = %v, want %v", k, probs[k], w)
		}
	}
}

func TestEnumerateStableNoInstant(t *testing.T) {
	m := NewModel("none")
	m.Place("p", 3)
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	sucs, err := EnumerateStable(m, m.NewState())
	if err != nil {
		t.Fatal(err)
	}
	if len(sucs) != 1 || sucs[0].Prob != 1 {
		t.Fatalf("sucs = %v", sucs)
	}
}

func TestScopes(t *testing.T) {
	m := NewModel("scoped")
	root := Root(m)
	global := root.Place("global", 5)

	replica := func(sc *Scope) {
		local := sc.Place("local", 0)
		shared := sc.Shared("perApp")
		g := sc.Shared("global")
		sc.Activity(ActivityDef{
			Name: "act", Kind: Instant,
			Enabled: func(s *State) bool { return s.Get(g) > 0 && s.Get(local) == 0 && s.Get(shared) < 100 },
			Reads:   []*Place{g, local, shared},
			Cases: []Case{{Prob: 1, Effect: func(ctx *Context) {
				ctx.State.Set(local, 1)
				ctx.State.Add(shared, 1)
				ctx.State.Add(g, -1)
			}}},
		})
	}

	for a := 0; a < 2; a++ {
		app := root.Child("app[" + string(rune('0'+a)) + "]")
		app.Place("perApp", 0)
		Replicate(app, "rep", 3, []string{"perApp", "global"}, replica)
	}
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	// 1 global + 2 perApp + 6 local = 9 places; 6 activities.
	if len(m.Places()) != 9 {
		t.Fatalf("places = %d", len(m.Places()))
	}
	if len(m.Activities()) != 6 {
		t.Fatalf("activities = %d", len(m.Activities()))
	}
	// Run to stability: 5 tokens available, 6 candidates, each claims one.
	s := m.NewState()
	fired, err := Stabilize(m, &Context{State: s, Rand: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	if fired != 5 || s.Get(global) != 0 {
		t.Fatalf("fired=%d global=%d", fired, s.Get(global))
	}
	app0 := m.PlaceByName("app[0].perApp")
	app1 := m.PlaceByName("app[1].perApp")
	if app0 == nil || app1 == nil {
		t.Fatal("scoped place names not found")
	}
	if s.Get(app0)+s.Get(app1) != 5 {
		t.Fatalf("perApp totals = %d + %d", s.Get(app0), s.Get(app1))
	}
}

func TestScopeSharedMissingPanics(t *testing.T) {
	m := NewModel("m")
	root := Root(m)
	defer func() {
		if recover() == nil {
			t.Fatal("missing shared place did not panic")
		}
	}()
	root.Child("x").Shared("nope")
}

func TestReplicateMissingSharePanics(t *testing.T) {
	m := NewModel("m")
	root := Root(m)
	defer func() {
		if recover() == nil {
			t.Fatal("Replicate with undeclared share did not panic")
		}
	}()
	Replicate(root, "r", 2, []string{"missing"}, func(sc *Scope) {})
}

// TestResolverAllocsConstant pins that forking does not allocate per
// branch: a free function with a uniform choice over n alternatives and a
// weighted choice over ten (one of them zero-weight), each outcome then
// settled by a two-case instantaneous activity, resolves with the same
// allocation count at 108 and at 432 choice branches once the resolver's
// buffers have grown.
func TestResolverAllocsConstant(t *testing.T) {
	m := NewModel("fork")
	pick := m.Place("pick", 0)
	class := m.Place("class", 0)
	flag := m.Place("flag", 0)
	m.AddActivity(ActivityDef{
		Name: "settle", Kind: Instant,
		Enabled: func(s *State) bool { return s.Get(flag) == 1 },
		Reads:   []*Place{flag},
		Cases: []Case{
			{Prob: 0.25, Effect: func(ctx *Context) { ctx.State.Set(flag, 2) }},
			{Prob: 0.75, Effect: func(ctx *Context) { ctx.State.Set(flag, 3) }},
		},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	weights := []float64{1, 2, 0, 3, 1, 1, 2, 4, 1, 5}
	n := 0
	fn := func(ctx *Context) {
		ctx.State.Set(pick, Marking(ctx.Choose(n)))
		ctx.State.Set(class, Marking(ctx.ChooseWeighted(weights)))
		ctx.State.Set(flag, 1)
	}
	var visits int
	var total float64
	visit := func(_ *State, p float64, _ int) error {
		visits++
		total += p
		return nil
	}
	r := NewResolver(m)
	base := m.NewState()
	resolve := func() {
		visits, total = 0, 0
		if err := r.Resolve(base, nil, 0, fn, visit); err != nil {
			t.Fatal(err)
		}
	}
	allocs := make(map[int]float64)
	for _, n = range []int{12, 48} { // 9 positive weights: 108 and 432 choice branches
		resolve()
		if want := 2 * 9 * n; visits != want {
			t.Fatalf("n=%d: %d stable outcomes, want %d", n, visits, want)
		}
		if math.Abs(total-1) > 1e-12 {
			t.Fatalf("n=%d: probabilities sum to %v", n, total)
		}
		allocs[n] = testing.AllocsPerRun(20, resolve)
	}
	if allocs[12] != allocs[48] {
		t.Fatalf("allocations grow with the branch count: %v at 108 branches, %v at 432", allocs[12], allocs[48])
	}
	t.Logf("%v allocations per resolution", allocs[48])
}
