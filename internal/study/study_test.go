package study

import (
	"context"
	"math"
	"strings"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/ituadirect"
	"ituaval/internal/reward"
	"ituaval/internal/rng"
	"ituaval/internal/stats"
)

// quick returns a low-effort config so study tests stay fast; shape
// assertions below use wide tolerances accordingly.
func quick() Config { return Config{Reps: 250, Seed: 7} }

func TestFig3Shapes(t *testing.T) {
	fig, err := Fig3(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 4 {
		t.Fatalf("panels = %d", len(fig.Panels))
	}
	for _, p := range fig.Panels {
		if len(p.Series) != len(Fig3Apps) {
			t.Fatalf("panel %s series = %d", p.ID, len(p.Series))
		}
		for _, s := range p.Series {
			if len(s.X) != len(Fig3HostsPerDomain) {
				t.Fatalf("panel %s series %q points = %d", p.ID, s.Name, len(s.X))
			}
		}
	}
	// Shape assertions on the 4-application series (index 1).
	unavail := fig.Panels[0].Series[1]
	if unavail.Y[0] >= unavail.Y[len(unavail.Y)-1] {
		t.Errorf("3a: unavailability should rise with hosts/domain: %v", unavail.Y)
	}
	unrel := fig.Panels[1].Series[1]
	peak := 0
	for i, y := range unrel.Y {
		if y > unrel.Y[peak] {
			peak = i
		}
	}
	if hpd := Fig3HostsPerDomain[peak]; hpd < 3 || hpd > 6 {
		t.Errorf("3b: unreliability peak at %d hosts/domain (want 3-6): %v", hpd, unrel.Y)
	}
	if unrel.Y[len(unrel.Y)-1] >= unrel.Y[peak] {
		t.Errorf("3b: unreliability should decline after the peak: %v", unrel.Y)
	}
	corr := fig.Panels[2].Series[1]
	if corr.Y[0] < 0.7 || corr.Y[0] <= corr.Y[len(corr.Y)-1] {
		t.Errorf("3c: corrupt fraction should start high and decline: %v", corr.Y)
	}
	excl := fig.Panels[3].Series[1]
	if excl.Y[0] >= excl.Y[len(excl.Y)-1] {
		t.Errorf("3d: excluded fraction should rise: %v", excl.Y)
	}
}

func TestFig4Shapes(t *testing.T) {
	fig, err := Fig4(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	// 4a: [0,10] above [0,5]; both increasing overall.
	u5, u10 := fig.Panels[0].Series[0], fig.Panels[0].Series[1]
	for i := range u5.Y {
		if u10.Y[i] < u5.Y[i] {
			t.Errorf("4a: unavailability [0,10] below [0,5] at x=%v", u5.X[i])
		}
	}
	if u5.Y[len(u5.Y)-1] <= u5.Y[0]*0.8 {
		t.Errorf("4a: unavailability should not fall with hosts/domain: %v", u5.Y)
	}
	// 4c: steady-state corrupt fraction decreasing.
	ss := fig.Panels[2].Series[0]
	if ss.Y[0] < 0.7 || ss.Y[len(ss.Y)-1] >= ss.Y[0] {
		t.Errorf("4c: steady-state corrupt fraction should decline from high: %v", ss.Y)
	}
	// 4d: more excluded at 10 than at 5, rising with hosts/domain.
	e5, e10 := fig.Panels[3].Series[0], fig.Panels[3].Series[1]
	for i := range e5.Y {
		if e10.Y[i] < e5.Y[i] {
			t.Errorf("4d: excluded at 10 below excluded at 5 at x=%v", e5.X[i])
		}
	}
	if e5.Y[len(e5.Y)-1] <= e5.Y[0] {
		t.Errorf("4d: excluded fraction should rise with hosts/domain: %v", e5.Y)
	}
}

func TestFig5Shapes(t *testing.T) {
	// Per-run unavailability is heavy-tailed, so this sweep needs more
	// replications than the other shape tests for stable orderings.
	fig, err := Fig5(context.Background(), Config{Reps: 1500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Series order: [host, domain] per panel. The 10-hour measures (5b,
	// 5d) are much less noisy than 5-hour unavailability, so the shape
	// assertions use those.
	hostU10, domU10 := fig.Panels[1].Series[0], fig.Panels[1].Series[1]
	last := len(hostU10.Y) - 1
	if hostU10.Y[0] >= domU10.Y[0] {
		t.Errorf("5b: host exclusion should be better at spread 0: host=%v dom=%v", hostU10.Y[0], domU10.Y[0])
	}
	hostR10, domR10 := fig.Panels[3].Series[0], fig.Panels[3].Series[1]
	if hostR10.Y[0] >= domR10.Y[0] {
		t.Errorf("5d: host exclusion should be more reliable at spread 0: host=%v dom=%v", hostR10.Y[0], domR10.Y[0])
	}
	if hostR10.Y[last] <= 2*hostR10.Y[0] {
		t.Errorf("5d: host exclusion should degrade sharply with spread: %v", hostR10.Y)
	}
	// The host/domain gap must close substantially from spread 0 to 10.
	if gap0, gap10 := hostR10.Y[0]/domR10.Y[0], hostR10.Y[last]/domR10.Y[last]; gap10 <= 1.5*gap0 {
		t.Errorf("5d: long-run gap should close with spread: ratio %v -> %v", gap0, gap10)
	}
	// Host exclusion must degrade faster (relatively) than domain exclusion.
	if hg, dg := hostR10.Y[last]/hostR10.Y[0], domR10.Y[last]/domR10.Y[0]; hg <= 1.3*dg {
		t.Errorf("5d: host exclusion should degrade faster: host %vx vs domain %vx", hg, dg)
	}
}

func TestCrossValidationAgreement(t *testing.T) {
	fig, err := CrossValidation(context.Background(), Config{Reps: 800, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig.Panels {
		san, direct := p.Series[0], p.Series[1]
		for i := range san.Y {
			tol := 3*(san.HW[i]+direct.HW[i]) + 0.01
			if d := math.Abs(san.Y[i] - direct.Y[i]); d > tol {
				t.Errorf("%s x=%v: SAN %v vs direct %v (|d|=%v tol=%v)",
					p.ID, san.X[i], san.Y[i], direct.Y[i], d, tol)
			}
		}
	}
}

func TestNumericalValidationAgreement(t *testing.T) {
	fig, err := NumericalValidation(context.Background(), Config{Reps: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := fig.Panels[0]
	simS, numS := p.Series[0], p.Series[1]
	for i := range simS.Y {
		tol := 3*simS.HW[i] + 0.005
		if d := math.Abs(simS.Y[i] - numS.Y[i]); d > tol {
			t.Errorf("T=%v: sim %v vs numeric %v (|d|=%v tol=%v)", simS.X[i], simS.Y[i], numS.Y[i], d, tol)
		}
	}
}

func TestAblationConvictionOrdering(t *testing.T) {
	fig, err := AblationConviction(context.Background(), Config{Reps: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Excluding a domain on every replica conviction must exclude at least
	// as many domains as restart-only, at every sweep point.
	excl := fig.Panels[1]
	restart, exclude := excl.Series[0], excl.Series[1]
	for i := range restart.Y {
		if exclude.Y[i]+0.05 < restart.Y[i] {
			t.Errorf("x=%v: exclusion-on-conviction excluded fewer domains (%v) than restart (%v)",
				restart.X[i], exclude.Y[i], restart.Y[i])
		}
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Fatal("IDs() length mismatch")
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("IDs() not sorted")
		}
	}
	if _, err := Run("nope", quick()); err == nil {
		t.Fatal("unknown id accepted")
	}
	// Every entry shows a description on the discovery surfaces, and every
	// entry but numval (which solves its own reduced model) carries the
	// grid its runner sweeps.
	for _, id := range ids {
		e := Registry[id]
		if e.Description == "" {
			t.Errorf("%s: empty description", id)
		}
		if id == "numval" {
			continue
		}
		if e.Grid == nil || len(e.Grid()) == 0 {
			t.Errorf("%s: no sweep grid", id)
		}
	}
}

func TestWriters(t *testing.T) {
	fig, err := AblationDetectionRate(context.Background(), Config{Reps: 60, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var text, csv strings.Builder
	if err := fig.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := fig.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "Figure X3") {
		t.Fatalf("text output missing title:\n%s", text.String())
	}
	if !strings.Contains(text.String(), "replications per point") {
		t.Fatalf("text output missing replication accounting:\n%s", text.String())
	}
	if !strings.Contains(text.String(), "60/0/0 of 60") {
		t.Fatalf("text output missing completed/failed/skipped counts:\n%s", text.String())
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "figure,panel,series,x,y,hw,n,reps,completed,failed,skipped" || len(lines) < 10 {
		t.Fatalf("csv output unexpected:\n%s", csv.String())
	}
	for _, line := range lines[1:] {
		if !strings.HasSuffix(line, ",60,60,0,0") {
			t.Fatalf("csv row missing replication accounting: %s", line)
		}
	}
	// Every series carries per-point counts parallel to X.
	for _, p := range fig.Panels {
		for _, s := range p.Series {
			if len(s.N) != len(s.X) || len(s.Completed) != len(s.X) ||
				len(s.Failed) != len(s.X) || len(s.Skipped) != len(s.X) || len(s.Reps) != len(s.X) {
				t.Fatalf("series %q counts not parallel to X", s.Name)
			}
		}
	}
}

// runPoint runs a one-point sweep at horizon T.
func runPoint(t *testing.T, cfg Config, p core.Params, T float64, vars func(m *core.Model) []reward.Var) *PointResult {
	t.Helper()
	prs, err := RunSweep(context.Background(), cfg, []PointSpec{{Label: "point", Params: p, Until: T, Vars: vars}}, SweepHooks{})
	if err != nil {
		t.Fatal(err)
	}
	return prs[0]
}

// TestPointPrecisionMode drives one sweep point under a relative half-width
// target: the replication count must grow geometrically from Reps until the
// target holds for every measure (or the cap is hit).
func TestPointPrecisionMode(t *testing.T) {
	p := core.DefaultParams()
	p.NumDomains = 4
	p.HostsPerDomain = 2
	p.NumApps = 3
	p.RepsPerApp = 4
	const T = 5.0
	cfg := Config{Reps: 50, Seed: 3, TargetRelHW: 0.25, MaxReps: 6400}
	pr := runPoint(t, cfg, p, T, func(m *core.Model) []reward.Var {
		return []reward.Var{m.Unavailability("u", 0, 0, T)}
	})
	if pr.Reps < cfg.Reps {
		t.Fatalf("precision point ran %d reps, below the initial batch %d", pr.Reps, cfg.Reps)
	}
	// The schedule is geometric from 50 with growth 2 and cap 6400.
	onSchedule := false
	for n := cfg.Reps; n <= cfg.MaxReps; n *= 2 {
		if pr.Reps == n {
			onSchedule = true
		}
	}
	if !onSchedule {
		t.Fatalf("total reps %d is not on the geometric schedule from %d", pr.Reps, cfg.Reps)
	}
	u := pr.Est["u"]
	if pr.Reps < cfg.MaxReps && u.HalfWidth95 > cfg.TargetRelHW*math.Abs(u.Mean) {
		t.Fatalf("stopped early with hw %v > %v of mean %v", u.HalfWidth95, cfg.TargetRelHW, u.Mean)
	}
	if pr.Completed+pr.Failed+pr.Skipped != pr.Reps {
		t.Fatalf("replication accounting inconsistent: %+v", pr)
	}
}

// TestFig5PairedShapes checks the CRN-paired reading of study 3: panel
// structure, a negative host-minus-domain delta at spread 0 (host exclusion
// is strictly better without intra-domain spread), and the crossover /
// variance-reduction notes.
func TestFig5PairedShapes(t *testing.T) {
	fig, err := Fig5Paired(context.Background(), Config{Reps: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 4 {
		t.Fatalf("panels = %d", len(fig.Panels))
	}
	for _, p := range fig.Panels {
		if len(p.Series) != 3 {
			t.Fatalf("panel %s series = %d, want host/domain/delta", p.ID, len(p.Series))
		}
		for _, s := range p.Series {
			if len(s.X) != len(Fig5SpreadRates) || len(s.N) != len(s.X) {
				t.Fatalf("panel %s series %q shape wrong", p.ID, s.Name)
			}
		}
		host, dom, delta := p.Series[0], p.Series[1], p.Series[2]
		for i := range delta.Y {
			if d := delta.Y[i] - (host.Y[i] - dom.Y[i]); math.Abs(d) > 1e-9 {
				t.Fatalf("panel %s x=%v: delta %v inconsistent with marginals %v - %v",
					p.ID, delta.X[i], delta.Y[i], host.Y[i], dom.Y[i])
			}
		}
	}
	// 5pd (unreliability over 10 h) resolves the policies most clearly at
	// spread 0: host exclusion keeps more of the system alive.
	delta := fig.Panels[3].Series[2]
	if delta.Y[0] >= 0 {
		t.Errorf("5pd: host-minus-domain unreliability delta at spread 0 should be negative, got %v", delta.Y[0])
	}
	if len(fig.Notes) == 0 {
		t.Error("paired figure carries no crossover/VRF notes")
	}
}

func TestAblationPlacementLoadBalancing(t *testing.T) {
	fig, err := AblationPlacement(context.Background(), Config{Reps: 400, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 2 || len(fig.Panels[0].Series) != 3 {
		t.Fatalf("unexpected structure: %d panels", len(fig.Panels))
	}
	// All three strategies must produce comparable availability (placement
	// is a second-order effect) — no strategy should differ by an order of
	// magnitude at spread 0.
	u := fig.Panels[0]
	for _, s := range u.Series[1:] {
		if s.Y[0] > 10*u.Series[0].Y[0]+0.05 || u.Series[0].Y[0] > 10*s.Y[0]+0.05 {
			t.Errorf("placement strategy %q availability wildly different: %v vs %v",
				s.Name, s.Y[0], u.Series[0].Y[0])
		}
	}
}

func TestCrossValidationWithPlacementStrategies(t *testing.T) {
	// The SAN model and the direct simulator implement the placement
	// strategies independently; they must agree for each.
	for _, placement := range []core.Placement{core.LeastLoadedPlacement, core.WeightedRandomPlacement} {
		p := core.DefaultParams()
		p.NumDomains = 4
		p.HostsPerDomain = 3
		p.NumApps = 3
		p.RepsPerApp = 4
		p.Placement = placement
		const T, reps = 6.0, 1200
		pr := runPoint(t, Config{Reps: reps, Seed: 21}, p, T, func(m *core.Model) []reward.Var {
			return []reward.Var{m.Unavailability("u", 0, 0, T)}
		})
		est := pr.Est
		var acc stats.Accumulator
		root := rng.New(77)
		for i := 0; i < reps; i++ {
			res, err := ituadirect.Run(p, root.Derive(uint64(i)), []float64{T})
			if err != nil {
				t.Fatal(err)
			}
			acc.Add(res.UnavailTime[0] / T)
		}
		tol := 3*(est["u"].HalfWidth95+acc.HalfWidth(0.95)) + 0.01
		if d := math.Abs(est["u"].Mean - acc.Mean()); d > tol {
			t.Errorf("%v: SAN %v vs direct %v (|d|=%v tol=%v)",
				placement, est["u"].Mean, acc.Mean(), d, tol)
		}
	}
}
