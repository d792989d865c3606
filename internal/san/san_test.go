package san

import (
	"math"
	"strings"
	"testing"

	"ituaval/internal/rng"
)

// buildSimple creates a model with one place and one timed activity that
// moves a token from src to dst.
func buildSimple(t *testing.T) (*Model, *Place, *Place) {
	t.Helper()
	m := NewModel("simple")
	src := m.Place("src", 1)
	dst := m.Place("dst", 0)
	m.AddActivity(ActivityDef{
		Name:    "move",
		Kind:    Timed,
		Rate:    func(*State) float64 { return 1 },
		Enabled: func(s *State) bool { return s.Get(src) > 0 },
		Reads:   []*Place{src},
		Cases: []Case{{Prob: 1, Effect: func(ctx *Context) {
			ctx.State.Add(src, -1)
			ctx.State.Add(dst, 1)
		}}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m, src, dst
}

func TestModelBasics(t *testing.T) {
	m, src, dst := buildSimple(t)
	s := m.NewState()
	if s.Get(src) != 1 || s.Get(dst) != 0 {
		t.Fatal("initial marking wrong")
	}
	a := m.ActivityByName("move")
	if a == nil || !a.Enabled(s) {
		t.Fatal("move should be enabled")
	}
	a.Fire(&Context{State: s}, 0)
	if s.Get(src) != 0 || s.Get(dst) != 1 {
		t.Fatal("firing did not move token")
	}
	if a.Enabled(s) {
		t.Fatal("move should be disabled after firing")
	}
}

func TestStateDirtyTracking(t *testing.T) {
	m, src, dst := buildSimple(t)
	s := m.NewState()
	s.ResetDirty()
	s.Set(src, 1) // no-op write must not dirty
	if len(s.Dirty()) != 0 {
		t.Fatal("no-op write marked dirty")
	}
	s.Set(dst, 5)
	s.Set(dst, 6)
	if d := s.Dirty(); len(d) != 1 || d[0] != dst.Index() {
		t.Fatalf("dirty = %v", s.Dirty())
	}
	s.ResetDirty()
	if len(s.Dirty()) != 0 {
		t.Fatal("ResetDirty did not clear")
	}
}

func TestNegativeMarkingPanics(t *testing.T) {
	m, src, _ := buildSimple(t)
	s := m.NewState()
	defer func() {
		if recover() == nil {
			t.Fatal("negative marking did not panic")
		}
	}()
	s.Add(src, -2)
}

func TestStateKeyDistinguishesMarkings(t *testing.T) {
	m, src, dst := buildSimple(t)
	s1 := m.NewState()
	s2 := m.NewState()
	if s1.Key() != s2.Key() {
		t.Fatal("equal markings produced different keys")
	}
	s2.Set(src, 0)
	s2.Set(dst, 1)
	if s1.Key() == s2.Key() {
		t.Fatal("different markings produced equal keys")
	}
}

func TestCopyFrom(t *testing.T) {
	m, src, dst := buildSimple(t)
	s1 := m.NewState()
	s2 := m.NewState()
	s1.Set(src, 0)
	s1.Set(dst, 7)
	s2.CopyFrom(s1)
	if s2.Get(dst) != 7 || s2.Get(src) != 0 {
		t.Fatal("CopyFrom did not copy")
	}
	if len(s2.Dirty()) != 0 {
		t.Fatal("CopyFrom left dirty bits")
	}
}

func TestFinalizeValidation(t *testing.T) {
	cases := []struct {
		name string
		def  ActivityDef
		want string
	}{
		{"no name", ActivityDef{Kind: Timed}, "has no name"},
		{"bad kind", ActivityDef{Name: "a"}, "invalid kind"},
		{"no rate", ActivityDef{Name: "a", Kind: Timed}, "no rate"},
		{"no predicate", ActivityDef{Name: "a", Kind: Instant}, "no enabling predicate"},
		{"no cases", ActivityDef{Name: "a", Kind: Instant, Enabled: func(*State) bool { return false }}, "no cases"},
		{"no reads", ActivityDef{
			Name: "a", Kind: Instant,
			Enabled: func(*State) bool { return false },
			Cases:   []Case{{Prob: 1}},
		}, "no read dependencies"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewModel("bad")
			m.AddActivity(c.def)
			err := m.Finalize()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Finalize error = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestFinalizeRejectsNegativeCaseProb(t *testing.T) {
	for _, c := range []struct {
		probs [2]float64
		want  string
	}{
		{[2]float64{-0.5, 1.5}, "want finite and >= 0"},
		{[2]float64{math.NaN(), 1.5}, "want finite and >= 0"},
		{[2]float64{math.Inf(1), 1.5}, "want finite and >= 0"},
		{[2]float64{math.MaxFloat64, math.MaxFloat64}, "infinite total case probability"},
	} {
		m := NewModel("bad")
		p := m.Place("p", 0)
		m.AddActivity(ActivityDef{
			Name: "a", Kind: Instant,
			Enabled: func(*State) bool { return false },
			Reads:   []*Place{p},
			Cases:   []Case{{Prob: c.probs[0]}, {Prob: c.probs[1]}},
		})
		if err := m.Finalize(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("probs %v: err = %v", c.probs, err)
		}
	}
}

func TestFinalizeRejectsDuplicateActivity(t *testing.T) {
	m := NewModel("dup")
	p := m.Place("p", 0)
	def := ActivityDef{
		Name: "a", Kind: Instant,
		Enabled: func(*State) bool { return false },
		Reads:   []*Place{p},
		Cases:   []Case{{Prob: 1}},
	}
	m.AddActivity(def)
	m.AddActivity(def)
	if err := m.Finalize(); err == nil || !strings.Contains(err.Error(), "duplicate activity") {
		t.Fatalf("err = %v", err)
	}
}

func TestFinalizeRejectsForeignPlace(t *testing.T) {
	other := NewModel("other")
	foreign := other.Place("p", 0)
	m := NewModel("m")
	m.AddActivity(ActivityDef{
		Name: "a", Kind: Instant,
		Enabled: func(*State) bool { return false },
		Reads:   []*Place{foreign},
		Cases:   []Case{{Prob: 1}},
	})
	if err := m.Finalize(); err == nil || !strings.Contains(err.Error(), "another model") {
		t.Fatalf("err = %v", err)
	}
}

func TestFinalizeRejectsDuplicatePlace(t *testing.T) {
	m := NewModel("m")
	p := m.Place("p", 0)
	m.Place("p", 1) // deferred: reported by Finalize, not a panic
	m.AddActivity(ActivityDef{
		Name: "a", Kind: Instant,
		Enabled: func(*State) bool { return false },
		Reads:   []*Place{p},
		Cases:   []Case{{Prob: 1}},
	})
	if err := m.Finalize(); err == nil || !strings.Contains(err.Error(), `duplicate place name "p"`) {
		t.Fatalf("err = %v", err)
	}
}

func TestFinalizeRejectsNegativeInitialMarking(t *testing.T) {
	m := NewModel("m")
	p := m.Place("p", -3)
	if p.Initial() != 0 {
		t.Fatalf("negative init not clamped: %d", p.Initial())
	}
	if err := m.Finalize(); err == nil || !strings.Contains(err.Error(), "negative initial marking") {
		t.Fatalf("err = %v", err)
	}
}

func TestFinalizeRejectsNegativeBound(t *testing.T) {
	m := NewModel("m")
	p := m.Place("p", 0)
	m.Bound(p, -1)
	if err := m.Finalize(); err == nil || !strings.Contains(err.Error(), "negative bound") {
		t.Fatalf("err = %v", err)
	}
}

func TestFinalizeRejectsNonPositiveCaseTotal(t *testing.T) {
	m := NewModel("bad")
	p := m.Place("p", 0)
	m.AddActivity(ActivityDef{
		Name: "a", Kind: Instant,
		Enabled: func(*State) bool { return false },
		Reads:   []*Place{p},
		Cases:   []Case{{Prob: 0}, {Prob: 0}},
	})
	if err := m.Finalize(); err == nil || !strings.Contains(err.Error(), "non-positive total case probability") {
		t.Fatalf("err = %v", err)
	}
}

func TestFinalizeRejectsNilReadPlace(t *testing.T) {
	m := NewModel("bad")
	m.AddActivity(ActivityDef{
		Name: "a", Kind: Instant,
		Enabled: func(*State) bool { return false },
		Reads:   []*Place{nil},
		Cases:   []Case{{Prob: 1}},
	})
	if err := m.Finalize(); err == nil || !strings.Contains(err.Error(), "nil place in Reads") {
		t.Fatalf("err = %v", err)
	}
}

func TestFinalizeTwiceErrors(t *testing.T) {
	m, _, _ := buildSimple(t)
	if err := m.Finalize(); err == nil || !strings.Contains(err.Error(), "already finalized") {
		t.Fatalf("err = %v", err)
	}
}

func TestObserveAndBound(t *testing.T) {
	m := NewModel("m")
	p := m.Place("p", 2)
	q := m.Place("q", 0)
	m.Observe(p)
	m.Bound(p, 5)
	if !m.Observed(p) || m.Observed(q) {
		t.Fatal("Observed wrong")
	}
	if b, ok := m.BoundOf(p); !ok || b != 5 {
		t.Fatalf("BoundOf(p) = %d, %v", b, ok)
	}
	if _, ok := m.BoundOf(q); ok {
		t.Fatal("q should have no bound")
	}
}

func TestDependencyIndex(t *testing.T) {
	m := NewModel("deps")
	p1 := m.Place("p1", 0)
	p2 := m.Place("p2", 0)
	a := m.AddActivity(ActivityDef{
		Name: "a", Kind: Instant,
		Enabled: func(s *State) bool { return s.Get(p1) > 0 },
		Reads:   []*Place{p1, p1}, // duplicate read should be deduplicated
		Cases:   []Case{{Prob: 1}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := m.Dependents(p1.Index()); len(got) != 1 || got[0] != a {
		t.Fatalf("Dependents(p1) = %v", got)
	}
	if got := m.Dependents(p2.Index()); len(got) != 0 {
		t.Fatalf("Dependents(p2) = %v", got)
	}
}

func TestChooseCaseFrequencies(t *testing.T) {
	m := NewModel("cc")
	p := m.Place("p", 1)
	a := m.AddActivity(ActivityDef{
		Name: "a", Kind: Timed,
		Rate:    func(*State) float64 { return 1 },
		Enabled: func(s *State) bool { return s.Get(p) > 0 },
		Reads:   []*Place{p},
		Cases:   []Case{{Prob: 0.8}, {Prob: 0.15}, {Prob: 0.05}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{State: m.NewState(), Rand: rng.New(7)}
	counts := [3]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[a.ChooseCase(ctx)]++
	}
	for i, want := range []float64{0.8, 0.15, 0.05} {
		got := float64(counts[i]) / n
		if got < want-0.01 || got > want+0.01 {
			t.Fatalf("case %d frequency %v want %v", i, got, want)
		}
	}
}

func TestReadTraceValidation(t *testing.T) {
	m, src, _ := buildSimple(t)
	s := m.NewState()
	s.StartTrace()
	a := m.ActivityByName("move")
	a.Enabled(s)
	reads := s.StopTrace()
	if _, ok := reads[src.Index()]; !ok || len(reads) != 1 {
		t.Fatalf("trace = %v", reads)
	}
}

func TestSummaryAndSortedNames(t *testing.T) {
	m, _, _ := buildSimple(t)
	sum := m.Summary()
	if !strings.Contains(sum, "2 places") || !strings.Contains(sum, "1 timed") {
		t.Fatalf("summary = %q", sum)
	}
	names := m.SortedPlaceNames()
	if len(names) != 2 || names[0] != "dst" || names[1] != "src" {
		t.Fatalf("names = %v", names)
	}
}

func TestWriteDOT(t *testing.T) {
	m, _, _ := buildSimple(t)
	var sb strings.Builder
	if err := WriteDOT(&sb, m); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "p:src", "a:move", "->"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}
