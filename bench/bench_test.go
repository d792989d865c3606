package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from operation 0 at seed 1")

func testEnv(t *testing.T) *env {
	return &env{root: "..", work: t.TempDir(), seed: 1}
}

// smokeWorkloads are the benchmark's workloads at sizes that run in a
// fraction of a second each.
func smokeWorkloads() []*workload {
	small := func(sz exactSize) exactSize {
		sz.domains, sz.hosts, sz.apps, sz.replicas = 2, 2, 1, 2
		return sz
	}
	return []*workload{
		fig5Workload(fig5Size{reps: 10, ladderReps: 2}),
		exactWorkload(small(exactAnchorSize)),
		exactWorkload(small(exactWideSize)),
		xcheckWorkload(xcheckSize{reps: 20, liveReps: 4, T: 10, ladderOps: 10}),
		jobsWorkload(jobsSize{reps: 20, ladderOps: 1}),
		hitsWorkload(hitsSize{jobs: 2, reps: 20}),
	}
}

// TestWorkloadsSmoke runs every workload's untraced and traced operations
// and its per-layer derivation at smoke size.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range smokeWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			e := testEnv(t)
			if w.prepare != nil {
				if err := w.prepare(e); err != nil {
					t.Fatal(err)
				}
			}
			inst, err := w.setup(e)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := inst.close(); err != nil {
					t.Error(err)
				}
			}()
			tr := newTracer(w.name)
			for i := 0; i < 2; i++ {
				d, err := inst.op(i)
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				root := tr.begin(nil, i, "op")
				dt, err := inst.traced(i, root)
				root.end()
				if err != nil {
					t.Fatalf("traced %d: %v", i, err)
				}
				if inst.repeatable() {
					if err := dt.matches(d, 0); err != nil {
						t.Errorf("op %d: traced differs from untraced: %v", i, err)
					}
				}
				if c, d := tr.coverage(root); float64(c) < 0.9*float64(d) {
					t.Errorf("op %d: spans cover %v of %v", i, c, d)
				}
			}
			m := make(map[string]float64)
			if err := inst.layers(tr, m); err != nil {
				t.Fatal(err)
			}
			known := make(map[string]bool)
			for _, def := range perLayer {
				known[def.Name] = true
			}
			for name := range m {
				if !known[name] {
					t.Errorf("layers reported %q, which is not a per-layer metric", name)
				}
			}
			if len(m) == 0 {
				t.Error("no per-layer metrics")
			}
		})
	}
}

// TestGolden recomputes operation 0 of every full-size workload at seed 1
// and compares it with testdata/golden.json; -update rewrites the file.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size operations")
	}
	gold, err := golden()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]digest)
	for _, w := range workloads() {
		e := testEnv(t)
		if w.prepare != nil {
			if err := w.prepare(e); err != nil {
				t.Fatal(err)
			}
		}
		inst, err := w.setup(e)
		if err != nil {
			t.Fatal(err)
		}
		d, err := inst.op(0)
		if cerr := inst.close(); cerr != nil {
			t.Error(cerr)
		}
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		got[w.name] = d
		if !*update {
			if err := d.matches(gold[w.name], goldenTol); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpecMatchesCode keeps BENCHMARK.json and the metrics and workloads
// the code emits identical.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	strip := func(defs []metricDef) []metricDef {
		out := make([]metricDef, len(defs))
		for i, d := range defs {
			out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better}
		}
		return out
	}
	if !reflect.DeepEqual(strip(spec.EndToEnd), endToEnd) {
		t.Errorf("end_to_end metrics in BENCHMARK.json differ from the code's:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer metrics in BENCHMARK.json differ from the code's")
	}
	for _, d := range spec.EndToEnd {
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", names, specNames)
	}
}

// fakeInstance is an instant workload for testing measure.
type fakeInstance struct{ failAt int }

func (f *fakeInstance) op(i int) (digest, error) {
	if i == f.failAt {
		return digest{}, errors.New("injected failure")
	}
	return digest{Values: map[string]float64{"v": 0.5}}, nil
}

func (f *fakeInstance) traced(i int, root *span) (digest, error) {
	sp := root.child("fake.layer")
	d, err := f.op(i)
	sp.end()
	return d, err
}

func (f *fakeInstance) repeatable() bool                         { return true }
func (f *fakeInstance) layers(*tracer, map[string]float64) error { return nil }
func (f *fakeInstance) close() error                             { return nil }

func fakeWorkload(failAt int) *workload {
	return &workload{name: "fake", setup: func(*env) (instance, error) { return &fakeInstance{failAt: failAt}, nil }}
}

// TestMeasureEmitsEveryMetric checks that both run modes print exactly
// the metrics of their list, with their units, and count failures.
func TestMeasureEmitsEveryMetric(t *testing.T) {
	setup := func(string) (float64, error) { return 0.001, nil }
	for _, traced := range []bool{false, true} {
		o := options{seconds: 0.02, trace: traced}
		res := measure(testEnv(t), fakeWorkload(-1), o, nil, setup, io.Discard)
		if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
			t.Fatalf("trace=%v: %+v", traced, res)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s = %+v, want unit %s", traced, d.Name, v, d.Unit)
			}
		}
		if !traced {
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name].Value; v <= 0 {
					t.Errorf("%s = %v, want > 0", d.Name, v)
				}
			}
		} else if cov := res.Metrics["trace.coverage"].Value; cov <= 0 || cov > 1 {
			t.Errorf("trace.coverage = %v", cov)
		}
	}

	res := measure(testEnv(t), fakeWorkload(2), options{seconds: 0.02}, nil, setup, io.Discard)
	if res.Correct || res.Failed != 1 {
		t.Errorf("one failing operation: correct %v, failed %d; want false, 1", res.Correct, res.Failed)
	}
	ref := &digest{Values: map[string]float64{"v": 0.25}}
	res = measure(testEnv(t), fakeWorkload(-1), options{seconds: 0.02}, ref, setup, io.Discard)
	if res.Correct || res.Failed != 1 {
		t.Errorf("golden mismatch at operation 0: correct %v, failed %d; want false, 1", res.Correct, res.Failed)
	}

	// Preparation and set-up run only through phase, which the benchmark
	// binds to fresh processes; the measuring process never prepares.
	var phases []string
	record := func(name string) (float64, error) {
		phases = append(phases, name)
		return 0.001, nil
	}
	w := fakeWorkload(-1)
	w.prepare = func(*env) error { return errors.New("prepared in the measuring process") }
	if res := measure(testEnv(t), w, options{seconds: 0.02}, nil, record, io.Discard); !res.Correct {
		t.Errorf("workload with a preparation: %+v", res)
	}
	if len(phases) != 1+setupRuns || phases[0] != phasePrepare || phases[1] != phaseSetup {
		t.Errorf("phases run: %v; want prepare, then setup %d times", phases, setupRuns)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(xs, n=4), method "exclusive"
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n          int
		pct, value float64
		ok         bool
	}{
		{20000, 99.9, 19980, true}, // 20 samples beyond
		{10009, 99.9, 9999, true},  // exactly 10 beyond
		{10008, 99.9, 9998, true},
		{1009, 99, 999, true},
		{100, 90, 90, true},
		{99, 50, 50, true},
		{20, 50, 10, true},
		{19, 0, 0, false},
	} {
		pct, v, ok := tail(seq(c.n))
		if pct != c.pct || v != c.value || ok != c.ok {
			t.Errorf("tail of %d samples = p%v %v %v; want p%v %v %v", c.n, pct, v, ok, c.pct, c.value, c.ok)
		}
	}
}

// TestSpanSelfTimeAndCoverage builds a span tree by hand: overlapping
// children count once, and the parts outside the parent do not count.
func TestSpanSelfTimeAndCoverage(t *testing.T) {
	tr := newTracer("test")
	ms := time.Millisecond
	mk := func(parent *span, name string, a, b time.Duration) *span {
		sp := &span{Name: name, Start: a, End: b, tr: tr}
		if parent != nil {
			sp.Parent = parent.ID
		}
		tr.record(sp)
		return sp
	}
	root := mk(nil, "op", 0, 100*ms)
	mk(root, "a", 10*ms, 40*ms)
	mk(root, "b", 30*ms, 60*ms) // overlaps a
	b2 := mk(root, "c", 90*ms, 120*ms)
	mk(b2, "c.inner", 95*ms, 100*ms)

	c, d := tr.coverage(root)
	if c != 60*ms || d != 100*ms {
		t.Errorf("coverage = %v of %v, want 60ms of 100ms", c, d)
	}
	tr.finish()
	self := make(map[string]time.Duration)
	for _, sp := range tr.spans {
		self[sp.Name] = sp.Self
	}
	want := map[string]time.Duration{"op": 40 * ms, "a": 30 * ms, "b": 30 * ms, "c": 25 * ms, "c.inner": 5 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if n := tr.spansOf(0); n != 5 {
		t.Errorf("operation 0 recorded %d spans, want 5", n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name       string
		def        metricDef
		base, next []float64
		claimed    bool
		want       string
	}{
		{"same", lower, steady, steady, false, verdictOK},
		{"within bound", lower, steady, scale(steady, 1.05), false, verdictOK},
		{"regressed", lower, steady, scale(steady, 1.2), false, verdictRegressed},
		{"regressed, higher is better", higher, steady, scale(steady, 0.8), false, verdictRegressed},
		{"noisy base", lower, noisy, steady, false, verdictUnresolved},
		{"noisy new", lower, steady, noisy, false, verdictUnresolved},
		{"noisy but every new run better", lower, scale(noisy, 3), noisy, false, verdictOK},
		{"claimed and won every pair", lower, steady, scale(steady, 0.8), true, verdictImproved},
		{"claimed, 9 of 10 pairs", lower, steady,
			[]float64{80, 80, 80, 80, 80, 80, 80, 80, 80, 200}, true, verdictImproved},
		{"claimed, 8 of 10 pairs", lower, steady,
			[]float64{80, 80, 80, 80, 80, 80, 80, 80, 200, 200}, true, verdictNotMet},
		{"claimed, ties win nothing", lower, []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100},
			[]float64{80, 80, 80, 80, 80, 80, 80, 80, 100, 100}, true, verdictNotMet},
		{"claimed, gain inside the base spread", lower, noisy, scale(noisy, 0.95), true, verdictNotMet},
	} {
		if got := verdict(c.def, c.base, c.next, c.claimed); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareMode runs -compare on record files and checks its exit
// status and rows.
func TestCompareMode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency []float64) string {
		var b strings.Builder
		for i, v := range latency {
			r := record{Workload: "fig5-sweep", Seed: uint64(i + 1), Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]measured{}}}
			for _, d := range endToEnd {
				r.Result.Metrics[d.Name] = measured{Value: 100, Unit: d.Unit}
			}
			r.Result.Metrics["latency_ms"] = measured{Value: v, Unit: "ms"}
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.jsonl", []float64{100, 101, 99, 100, 100})
	same := write("same.jsonl", []float64{100, 100, 101, 99, 100})
	slow := write("slow.jsonl", []float64{130, 131, 129, 130, 130})
	var out strings.Builder
	if code := runCompare("..", []string{base, "--", same}, "", &out, io.Discard); code != 0 {
		t.Errorf("same runs: exit %d\n%s", code, out.String())
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(rows) != 1+len(endToEnd) {
		t.Errorf("got %d rows, want a header and %d metric rows", len(rows), len(endToEnd))
	}
	out.Reset()
	if code := runCompare("..", []string{base, "--", slow}, "", &out, io.Discard); code != 1 ||
		!strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("slower runs: exit %d\n%s", code, out.String())
	}
	if code := runCompare("..", []string{base, slow}, "", io.Discard, io.Discard); code != 2 {
		t.Errorf("missing separator: exit %d, want 2", code)
	}
}

// TestPerLayerNamesUnique guards the metric lists against duplicates.
func TestPerLayerNamesUnique(t *testing.T) {
	var names []string
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			t.Errorf("metric %s listed twice", names[i])
		}
	}
}
