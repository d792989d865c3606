package san

import (
	"testing"
)

// lintClasses returns the set of classes present in findings, and the
// findings for one class.
func findingsOf(fs []LintFinding, c LintClass) []LintFinding {
	var out []LintFinding
	for _, f := range fs {
		if f.Class == c {
			out = append(out, f)
		}
	}
	return out
}

// chain builds src --move--> dst with optional extras applied before
// Finalize.
func chain(t *testing.T, init Marking, extras func(m *Model, src, dst *Place)) *Model {
	t.Helper()
	m := NewModel("chain")
	src := m.Place("src", init)
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
	if extras != nil {
		extras(m, src, dst)
	}
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLintCleanModel(t *testing.T) {
	m := chain(t, 1, func(m *Model, src, dst *Place) {
		m.Observe(dst)
		m.Bound(dst, 1)
		m.Bound(src, 1)
	})
	if fs := m.Lint(); len(fs) != 0 {
		t.Fatalf("clean model produced findings: %v", fs)
	}
}

func TestLintCaseProbSum(t *testing.T) {
	m := chain(t, 1, func(m *Model, src, dst *Place) {
		m.Observe(dst)
		m.AddActivity(ActivityDef{
			Name:    "skew",
			Kind:    Timed,
			Rate:    func(*State) float64 { return 1 },
			Enabled: func(s *State) bool { return s.Get(src) > 0 },
			Reads:   []*Place{src},
			Cases:   []Case{{Prob: 0.5}, {Prob: 0.6}},
		})
	})
	fs := findingsOf(m.Lint(), LintCaseProb)
	if len(fs) != 1 || fs[0].Subject != "skew" {
		t.Fatalf("findings = %v", fs)
	}
}

func TestLintNeverEnabled(t *testing.T) {
	m := chain(t, 1, func(m *Model, src, dst *Place) {
		m.Observe(dst)
		m.AddActivity(ActivityDef{
			Name:    "impossible",
			Kind:    Instant,
			Enabled: func(s *State) bool { return s.Get(src) > 100 }, // above every probe cap
			Reads:   []*Place{src},
			Cases:   []Case{{Prob: 1}},
		})
	})
	fs := findingsOf(m.Lint(), LintNeverEnabled)
	if len(fs) != 1 || fs[0].Subject != "impossible" {
		t.Fatalf("findings = %v", fs)
	}
}

func TestLintUnreachable(t *testing.T) {
	// src starts at 2 and only ever decreases, so src >= 5 is satisfiable
	// by an arbitrary marking but unreachable from the initial one.
	m := chain(t, 2, func(m *Model, src, dst *Place) {
		m.Observe(dst)
		m.AddActivity(ActivityDef{
			Name:    "boom",
			Kind:    Instant,
			Enabled: func(s *State) bool { return s.Get(src) >= 5 },
			Reads:   []*Place{src},
			Cases:   []Case{{Prob: 1}},
		})
	})
	fs := findingsOf(m.Lint(), LintUnreachable)
	if len(fs) != 1 || fs[0].Subject != "boom" {
		t.Fatalf("findings = %v", fs)
	}
	if ne := findingsOf(m.Lint(), LintNeverEnabled); len(ne) != 0 {
		t.Fatalf("boom misclassified as never-enabled: %v", ne)
	}
}

func TestLintOrphanAndNeverRead(t *testing.T) {
	m := chain(t, 1, func(m *Model, src, dst *Place) {
		m.Place("lonely", 1) // touched by nothing
	})
	fs := m.Lint()
	if o := findingsOf(fs, LintOrphanPlace); len(o) != 1 || o[0].Subject != "lonely" {
		t.Fatalf("orphan findings = %v", o)
	}
	// dst is written by move but read by nothing and not Observe'd.
	if nr := findingsOf(fs, LintNeverRead); len(nr) != 1 || nr[0].Subject != "dst" {
		t.Fatalf("never-read findings = %v", nr)
	}
}

func TestLintObserveSuppressesNeverRead(t *testing.T) {
	m := chain(t, 1, func(m *Model, src, dst *Place) {
		m.Observe(dst)
	})
	if nr := findingsOf(m.Lint(), LintNeverRead); len(nr) != 0 {
		t.Fatalf("Observe did not suppress never-read: %v", nr)
	}
}

func TestLintBoundExceeded(t *testing.T) {
	m := chain(t, 3, func(m *Model, src, dst *Place) {
		m.Observe(dst)
		m.Bound(dst, 1) // three tokens flow into dst during walks
	})
	fs := findingsOf(m.Lint(), LintBoundExceeded)
	if len(fs) != 1 || fs[0].Subject != "dst" {
		t.Fatalf("findings = %v", fs)
	}
}

func TestLintBoundBelowInitial(t *testing.T) {
	m := chain(t, 1, func(m *Model, src, dst *Place) {
		m.Observe(dst)
		m.Bound(src, 0)
	})
	fs := findingsOf(m.Lint(), LintBoundExceeded)
	if len(fs) != 1 || fs[0].Subject != "src" {
		t.Fatalf("findings = %v", fs)
	}
}

// A predicate that panics on arbitrary markings (marking used as an index)
// must not crash Lint; the model is otherwise clean.
func TestLintSurvivesPanickyPredicate(t *testing.T) {
	table := []int32{10, 20}
	m := chain(t, 1, func(m *Model, src, dst *Place) {
		m.Observe(dst)
		m.AddActivity(ActivityDef{
			Name:    "indexed",
			Kind:    Instant,
			Enabled: func(s *State) bool { return table[s.Get(dst)] > 15 }, // panics for dst > 1
			Reads:   []*Place{dst},
			Cases: []Case{{Prob: 1, Effect: func(ctx *Context) {
				ctx.State.Set(dst, 0)
			}}},
		})
	})
	fs := m.Lint()
	for _, f := range fs {
		if f.Class == LintNeverEnabled && f.Subject == "indexed" {
			t.Fatalf("panicky predicate misreported: %v", f)
		}
	}
}

func TestLintDeterministic(t *testing.T) {
	build := func() *Model {
		return chain(t, 2, func(m *Model, src, dst *Place) {
			m.Place("lonely", 0)
			m.Bound(dst, 1)
		})
	}
	a := build().Lint()
	b := build().Lint()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic lint: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("finding %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLintBeforeFinalizePanics(t *testing.T) {
	m := NewModel("m")
	defer func() {
		if recover() == nil {
			t.Fatal("Lint before Finalize did not panic")
		}
	}()
	m.Lint()
}
