package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"ituaval/internal/core"
	"ituaval/internal/reward"
	"ituaval/internal/study"
)

// parsePolicy maps the DSL spelling (core.Policy.String()) to the enum.
func parsePolicy(s string) (core.Policy, error) {
	switch s {
	case "domain-exclusion":
		return core.DomainExclusion, nil
	case "host-exclusion":
		return core.HostExclusion, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want \"domain-exclusion\" or \"host-exclusion\")", s)
	}
}

// parsePlacement maps the DSL spelling (core.Placement.String()) to the enum.
func parsePlacement(s string) (core.Placement, error) {
	switch s {
	case "uniform":
		return core.UniformPlacement, nil
	case "least-loaded":
		return core.LeastLoadedPlacement, nil
	case "weighted-random":
		return core.WeightedRandomPlacement, nil
	default:
		return 0, fmt.Errorf("unknown placement %q (want \"uniform\", \"least-loaded\", or \"weighted-random\")", s)
	}
}

// Params compiles the model block onto the paper baseline.
func (m *Model) Params() (core.Params, error) {
	p := core.DefaultParams()
	p.NumDomains = m.Domains
	p.HostsPerDomain = m.HostsPerDomain
	p.NumApps = m.Apps
	p.RepsPerApp = m.RepsPerApp
	if m.Policy != "" {
		pol, err := parsePolicy(m.Policy)
		if err != nil {
			return p, err
		}
		p.Policy = pol
	}
	if m.Placement != "" {
		pl, err := parsePlacement(m.Placement)
		if err != nil {
			return p, err
		}
		p.Placement = pl
	}
	set := func(dst *float64, v *float64) {
		if v != nil {
			*dst = *v
		}
	}
	set(&p.TotalAttackRate, m.TotalAttackRate)
	set(&p.AttackSplitHost, m.AttackSplitHost)
	set(&p.AttackSplitReplica, m.AttackSplitReplica)
	set(&p.AttackSplitMgr, m.AttackSplitMgr)
	set(&p.TotalFalseAlarmRate, m.TotalFalseAlarmRate)
	set(&p.FalseSplitHost, m.FalseSplitHost)
	set(&p.FalseSplitReplica, m.FalseSplitReplica)
	set(&p.PScript, m.PScript)
	set(&p.PExploratory, m.PExploratory)
	set(&p.PInnovative, m.PInnovative)
	set(&p.DetectScript, m.DetectScript)
	set(&p.DetectExploratory, m.DetectExploratory)
	set(&p.DetectInnovative, m.DetectInnovative)
	set(&p.DetectReplica, m.DetectReplica)
	set(&p.DetectMgr, m.DetectMgr)
	set(&p.HostDetectRate, m.HostDetectRate)
	set(&p.ReplicaDetectRate, m.ReplicaDetectRate)
	set(&p.MgrDetectRate, m.MgrDetectRate)
	set(&p.DomainSpreadRate, m.DomainSpreadRate)
	set(&p.SystemSpreadRate, m.SystemSpreadRate)
	set(&p.SpreadRateCoeff, m.SpreadRateCoeff)
	set(&p.AssetSpreadCoeff, m.AssetSpreadCoeff)
	set(&p.CorruptionMult, m.CorruptionMult)
	set(&p.MisbehaveRate, m.MisbehaveRate)
	set(&p.RecoveryRate, m.RecoveryRate)
	set(&p.PartitionRate, m.PartitionRate)
	set(&p.PartitionHealRate, m.PartitionHealRate)
	set(&p.CampaignRate, m.CampaignRate)
	set(&p.CampaignProb, m.CampaignProb)
	p.CampaignSize = m.CampaignSize
	p.RepairCrew = m.RepairCrew
	p.RateBaseHosts = m.RateBaseHosts
	p.RateBaseReplicas = m.RateBaseReplicas
	p.ExcludeOnReplicaConviction = m.ExcludeOnReplicaConviction
	p.Analytic = m.Analytic
	return p, nil
}

// axisParam describes one sweepable parameter: how to apply a value to
// core.Params and what value domain it accepts.
type axisParam struct {
	integer   bool
	enum      bool
	setNum    func(p *core.Params, v float64)
	setEnum   func(p *core.Params, s string) error
	checkEnum func(s string) error
}

// axisParams is the sweepable-parameter table, keyed by the same lowerCamel
// names the model block uses.
var axisParams = map[string]axisParam{
	"domains":        intAxis(func(p *core.Params, v int) { p.NumDomains = v }),
	"hostsPerDomain": intAxis(func(p *core.Params, v int) { p.HostsPerDomain = v }),
	"apps":           intAxis(func(p *core.Params, v int) { p.NumApps = v }),
	"repsPerApp":     intAxis(func(p *core.Params, v int) { p.RepsPerApp = v }),
	"rateBaseHosts":  intAxis(func(p *core.Params, v int) { p.RateBaseHosts = v }),

	"totalAttackRate":     numAxis(func(p *core.Params, v float64) { p.TotalAttackRate = v }),
	"attackSplitHost":     numAxis(func(p *core.Params, v float64) { p.AttackSplitHost = v }),
	"attackSplitReplica":  numAxis(func(p *core.Params, v float64) { p.AttackSplitReplica = v }),
	"attackSplitMgr":      numAxis(func(p *core.Params, v float64) { p.AttackSplitMgr = v }),
	"totalFalseAlarmRate": numAxis(func(p *core.Params, v float64) { p.TotalFalseAlarmRate = v }),
	"hostDetectRate":      numAxis(func(p *core.Params, v float64) { p.HostDetectRate = v }),
	"replicaDetectRate":   numAxis(func(p *core.Params, v float64) { p.ReplicaDetectRate = v }),
	"mgrDetectRate":       numAxis(func(p *core.Params, v float64) { p.MgrDetectRate = v }),
	"domainSpreadRate":    numAxis(func(p *core.Params, v float64) { p.DomainSpreadRate = v }),
	"systemSpreadRate":    numAxis(func(p *core.Params, v float64) { p.SystemSpreadRate = v }),
	"spreadRateCoeff":     numAxis(func(p *core.Params, v float64) { p.SpreadRateCoeff = v }),
	"assetSpreadCoeff":    numAxis(func(p *core.Params, v float64) { p.AssetSpreadCoeff = v }),
	"corruptionMult":      numAxis(func(p *core.Params, v float64) { p.CorruptionMult = v }),
	"misbehaveRate":       numAxis(func(p *core.Params, v float64) { p.MisbehaveRate = v }),
	"recoveryRate":        numAxis(func(p *core.Params, v float64) { p.RecoveryRate = v }),
	"partitionRate":       numAxis(func(p *core.Params, v float64) { p.PartitionRate = v }),
	"partitionHealRate":   numAxis(func(p *core.Params, v float64) { p.PartitionHealRate = v }),
	"campaignRate":        numAxis(func(p *core.Params, v float64) { p.CampaignRate = v }),
	"campaignProb":        numAxis(func(p *core.Params, v float64) { p.CampaignProb = v }),
	"campaignSize":        intAxis(func(p *core.Params, v int) { p.CampaignSize = v }),
	"repairCrew":          intAxis(func(p *core.Params, v int) { p.RepairCrew = v }),

	"policy": {
		enum:      true,
		checkEnum: func(s string) error { _, err := parsePolicy(s); return err },
		setEnum: func(p *core.Params, s string) error {
			pol, err := parsePolicy(s)
			p.Policy = pol
			return err
		},
	},
	"placement": {
		enum:      true,
		checkEnum: func(s string) error { _, err := parsePlacement(s); return err },
		setEnum: func(p *core.Params, s string) error {
			pl, err := parsePlacement(s)
			p.Placement = pl
			return err
		},
	},
}

func numAxis(set func(p *core.Params, v float64)) axisParam {
	return axisParam{setNum: set}
}

func intAxis(set func(p *core.Params, v int)) axisParam {
	return axisParam{integer: true, setNum: func(p *core.Params, v float64) { set(p, int(v)) }}
}

// AxisParams returns the sweepable parameter names, sorted.
func AxisParams() []string {
	names := make([]string, 0, len(axisParams))
	for n := range axisParams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measureKind describes one measure constructor.
type measureKind struct {
	timed  bool // takes a To instant/interval end
	perApp bool // takes an application index
	build  func(m *core.Model, ms Measure, to float64) reward.Var
}

var measureKinds = map[string]measureKind{
	"unavailability": {timed: true, perApp: true, build: func(m *core.Model, ms Measure, to float64) reward.Var {
		return m.Unavailability(ms.Name, ms.App, ms.From, to)
	}},
	"unreliability": {timed: true, perApp: true, build: func(m *core.Model, ms Measure, to float64) reward.Var {
		return m.Unreliability(ms.Name, ms.App, to)
	}},
	"improper-ever": {timed: true, perApp: true, build: func(m *core.Model, ms Measure, to float64) reward.Var {
		return m.ImproperEver(ms.Name, ms.App, to)
	}},
	"group-failed": {timed: true, perApp: true, build: func(m *core.Model, ms Measure, to float64) reward.Var {
		return m.GroupFailed(ms.Name, ms.App, to)
	}},
	"replicas-running": {timed: true, perApp: true, build: func(m *core.Model, ms Measure, to float64) reward.Var {
		return m.ReplicasRunning(ms.Name, ms.App, to)
	}},
	"load-per-host": {timed: true, build: func(m *core.Model, ms Measure, to float64) reward.Var {
		return m.LoadPerHost(ms.Name, to)
	}},
	"frac-domains-excluded": {timed: true, build: func(m *core.Model, ms Measure, to float64) reward.Var {
		return m.FracDomainsExcluded(ms.Name, to)
	}},
	"frac-corrupt-hosts-at-exclusion": {timed: true, build: func(m *core.Model, ms Measure, to float64) reward.Var {
		return m.FracCorruptHostsAtExclusion(ms.Name, to)
	}},
	"domain-exclusions": {timed: true, build: func(m *core.Model, ms Measure, to float64) reward.Var {
		return m.DomainExclusions(ms.Name, to)
	}},
	"corrupt-hosts-frac": {timed: true, build: func(m *core.Model, ms Measure, to float64) reward.Var {
		return m.CorruptHostsFrac(ms.Name, to)
	}},
	"hosts-up": {timed: true, build: func(m *core.Model, ms Measure, to float64) reward.Var {
		return m.HostsUp(ms.Name, to)
	}},
	"time-to-byzantine": {perApp: true, build: func(m *core.Model, ms Measure, _ float64) reward.Var {
		return m.TimeToByzantine(ms.Name, ms.App)
	}},
	"time-to-first-exclusion": {build: func(m *core.Model, ms Measure, _ float64) reward.Var {
		return m.TimeToFirstExclusion(ms.Name)
	}},
}

// MeasureKinds returns the known measure kinds, sorted.
func MeasureKinds() []string {
	kinds := make([]string, 0, len(measureKinds))
	for k := range measureKinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// Point is one compiled grid point.
type Point struct {
	// Label attributes errors and progress to the point.
	Label string
	// Params is the fully applied model configuration.
	Params core.Params
	// SeedOffset is the point's offset from the scenario's root seed.
	SeedOffset uint64
	// Si and Xi locate the point on the (series, x) grid.
	Si, Xi int
	// X is the point's abscissa (0 for a sweepless scenario).
	X float64
}

// Defaults supplies the compiler's fallback effort when the scenario's run
// block leaves fields zero. The zero value selects 2000 replications, seed 1.
type Defaults struct {
	Reps int
	Seed uint64
}

// Compiled is a validated, normalized, runnable scenario.
type Compiled struct {
	// Scenario is the normalized spec: all defaults applied, so two inputs
	// meaning the same study canonicalize identically.
	Scenario Scenario
	// Points is the compiled grid, series-major (like the hand-written
	// sweeps: all X values of series 0, then series 1, ...).
	Points []Point
	// SeriesNames are the rendered series, one per series-axis value.
	SeriesNames []string
	// NumX is the number of X-axis values (1 for a sweepless scenario).
	NumX int
}

// Compile validates the scenario against the model (every grid point must
// pass core.Params.Validate and collide with no other point's seed range)
// and returns the runnable form. The input is not mutated.
func Compile(sc *Scenario, d Defaults) (*Compiled, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	c := &Compiled{Scenario: *sc}
	norm := &c.Scenario
	if norm.Figure.ID == "" {
		norm.Figure.ID = norm.Name
	}
	if norm.Figure.Title == "" {
		norm.Figure.Title = norm.Name
	}
	if norm.Run.Reps == 0 {
		norm.Run.Reps = d.Reps
	}
	if norm.Run.Reps == 0 {
		norm.Run.Reps = 2000
	}
	if norm.Run.Seed == 0 {
		norm.Run.Seed = d.Seed
	}
	if norm.Run.Seed == 0 {
		norm.Run.Seed = 1
	}
	if norm.precisionMode() && norm.Run.MaxReps == 0 {
		norm.Run.MaxReps = 16 * norm.Run.Reps
	}
	if norm.precisionMode() && norm.Run.MaxReps < norm.Run.Reps {
		return nil, fmt.Errorf("scenario: run.maxReps %d below the initial batch run.reps %d", norm.Run.MaxReps, norm.Run.Reps)
	}
	// Normalize measures: panels, labels, and horizons become explicit.
	norm.Measures = append([]Measure(nil), norm.Measures...)
	for i := range norm.Measures {
		ms := &norm.Measures[i]
		if ms.Panel == "" {
			ms.Panel = ms.Name
		}
		if ms.Label == "" {
			ms.Label = ms.Kind
		}
		if measureKinds[ms.Kind].timed && ms.To == 0 {
			ms.To = norm.Horizon
		}
	}

	base, err := norm.Model.Params()
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}

	// Axis value lists: a sweepless scenario is a 1×1 grid.
	type axisVal struct {
		num   float64
		str   string
		label string
	}
	expand := func(ax *Axis, defStride uint64) ([]axisVal, axisParam, uint64) {
		if ax == nil {
			return []axisVal{{}}, axisParam{}, 0
		}
		p := axisParams[ax.Param]
		stride := ax.SeedStride
		if stride == 0 {
			stride = defStride
		}
		var vals []axisVal
		for i, v := range ax.Values {
			av := axisVal{num: v, label: fmt.Sprintf("%s=%g", ax.Param, v)}
			if i < len(ax.Labels) {
				av.label = ax.Labels[i]
			}
			vals = append(vals, av)
		}
		for i, s := range ax.Strings {
			av := axisVal{str: s, label: fmt.Sprintf("%s=%s", ax.Param, s)}
			if i < len(ax.Labels) {
				av.label = ax.Labels[i]
			}
			vals = append(vals, av)
		}
		return vals, p, stride
	}
	var xs, series []axisVal
	var xParam, sParam axisParam
	var xStride, sStride uint64
	var xAxis, sAxis *Axis
	if norm.Sweep != nil {
		xAxis = &norm.Sweep.X
		sAxis = norm.Sweep.Series
	}
	xs, xParam, xStride = expand(xAxis, 1)
	// The default series stride is the smallest power of ten that covers the
	// X range, so default grids never collide; it stays 0 when no uint64
	// power of ten does (a range past 10^19).
	var defSeries uint64
	if hi, span := bits.Mul64(uint64(len(xs)), max(xStride, 1)); hi == 0 {
		for defSeries = 10; defSeries < span; defSeries *= 10 {
			if defSeries > math.MaxUint64/10 {
				defSeries = 0
				break
			}
		}
	}
	series, sParam, sStride = expand(sAxis, defSeries)
	if len(series) > 1 && sStride == 0 {
		return nil, fmt.Errorf("scenario: sweep.x spans more seed offsets than any default sweep.series seedStride covers; set one")
	}

	c.NumX = len(xs)
	apply := func(p *core.Params, ax *Axis, prm axisParam, v axisVal) error {
		if ax == nil {
			return nil
		}
		if prm.enum {
			return prm.setEnum(p, v.str)
		}
		prm.setNum(p, v.num)
		return nil
	}
	seen := make(map[uint64]string)
	for si, sv := range series {
		if sAxis != nil {
			c.SeriesNames = append(c.SeriesNames, sv.label)
		}
		for xi, xv := range xs {
			p := base
			if err := apply(&p, sAxis, sParam, sv); err != nil {
				return nil, fmt.Errorf("scenario: %w", err)
			}
			if err := apply(&p, xAxis, xParam, xv); err != nil {
				return nil, fmt.Errorf("scenario: %w", err)
			}
			label := norm.Name
			if sAxis != nil {
				label += " " + sv.label
			}
			if xAxis != nil {
				label += fmt.Sprintf(" %s=%g", xAxis.Param, xv.num)
			}
			off, ok := seedOffset(norm.Run.SeedOffset, uint64(si), sStride, uint64(xi), xStride)
			if !ok {
				return nil, fmt.Errorf("scenario: seed offset of %q overflows uint64; reduce run.seedOffset or the sweep seedStrides", label)
			}
			if prev, dup := seen[off]; dup {
				return nil, fmt.Errorf("scenario: seed offset %d collides between %q and %q; adjust sweep seedStride", off, prev, label)
			}
			seen[off] = label
			if err := p.Validate(); err != nil {
				return nil, fmt.Errorf("scenario: %s: %w", label, err)
			}
			for _, ms := range norm.Measures {
				if measureKinds[ms.Kind].perApp && ms.App >= p.NumApps {
					return nil, fmt.Errorf("scenario: %s: measure %q: app %d out of range (apps=%d)",
						label, ms.Name, ms.App, p.NumApps)
				}
			}
			c.Points = append(c.Points, Point{
				Label:      label,
				Params:     p,
				SeedOffset: off,
				Si:         si,
				Xi:         xi,
				X:          xv.num,
			})
		}
	}
	if len(c.SeriesNames) == 0 {
		c.SeriesNames = []string{norm.Name}
	}
	return c, nil
}

// seedOffset returns base + si·sStride + xi·xStride, and false when the sum
// does not fit in uint64.
func seedOffset(base, si, sStride, xi, xStride uint64) (uint64, bool) {
	shi, s := bits.Mul64(si, sStride)
	xhi, x := bits.Mul64(xi, xStride)
	off, c1 := bits.Add64(base, s, 0)
	off, c2 := bits.Add64(off, x, 0)
	return off, shi|xhi|c1|c2 == 0
}

func (sc *Scenario) precisionMode() bool {
	return sc.Run.TargetRelHW > 0 || sc.Run.TargetAbsHW > 0
}

// Canonical returns the deterministic serialization of the normalized
// scenario: every default applied, struct field order fixed. Two inputs
// with equal canonical bytes produce bit-identical results, which is what
// makes the SHA-256 of these bytes a content address for the study.
func (c *Compiled) Canonical() []byte {
	b, err := json.Marshal(&c.Scenario)
	if err != nil {
		// Scenario is a tree of scalars validated finite; Marshal cannot fail.
		panic(fmt.Sprintf("scenario: canonicalize: %v", err))
	}
	return b
}

// Hash is the hex SHA-256 of Canonical — the scenario's content address.
func (c *Compiled) Hash() string {
	sum := sha256.Sum256(c.Canonical())
	return hex.EncodeToString(sum[:])
}

// Config merges the scenario's run block into a base study configuration:
// scenario effort and seeds win, operational fields (workers, checkpoint,
// watchdogs, warning sink) stay the caller's.
func (c *Compiled) Config(base study.Config) study.Config {
	base.Reps = c.Scenario.Run.Reps
	base.Seed = c.Scenario.Run.Seed
	base.TargetRelHW = c.Scenario.Run.TargetRelHW
	base.TargetAbsHW = c.Scenario.Run.TargetAbsHW
	base.MaxReps = c.Scenario.Run.MaxReps
	return base
}

// vars builds the scenario's reward variables on a constructed model.
func (c *Compiled) vars(m *core.Model) []reward.Var {
	out := make([]reward.Var, len(c.Scenario.Measures))
	for i, ms := range c.Scenario.Measures {
		out[i] = measureKinds[ms.Kind].build(m, ms, ms.To)
	}
	return out
}

// PointSpecs compiles the grid into study sweep points.
func (c *Compiled) PointSpecs() []study.PointSpec {
	specs := make([]study.PointSpec, len(c.Points))
	for i, pt := range c.Points {
		specs[i] = study.PointSpec{
			Label:      pt.Label,
			Params:     pt.Params,
			Until:      c.Scenario.Horizon,
			SeedOffset: pt.SeedOffset,
			Vars:       c.vars,
		}
	}
	return specs
}

// TotalReps is the fixed-mode replication total of the whole grid, the
// denominator for progress reporting; 0 when a precision target makes the
// schedule adaptive.
func (c *Compiled) TotalReps() int64 {
	if c.Scenario.precisionMode() {
		return 0
	}
	return int64(c.Scenario.Run.Reps) * int64(len(c.Points))
}

// Figure assembles the point results into the rendered figure: one panel
// per measure, one series per series-axis value, points in X order.
func (c *Compiled) Figure(prs []*study.PointResult) (*study.Figure, error) {
	if len(prs) != len(c.Points) {
		return nil, fmt.Errorf("scenario: %d point results for %d points", len(prs), len(c.Points))
	}
	fig := &study.Figure{ID: c.Scenario.Figure.ID, Title: c.Scenario.Figure.Title}
	xLabel := "x"
	if c.Scenario.Sweep != nil {
		xLabel = c.Scenario.Sweep.XLabel
		if xLabel == "" {
			xLabel = c.Scenario.Sweep.X.Param
		}
	}
	panels := make([]study.Panel, len(c.Scenario.Measures))
	for mi, ms := range c.Scenario.Measures {
		panels[mi] = study.Panel{ID: ms.Panel, Measure: ms.Label, XLabel: xLabel}
		series := make([]study.Series, len(c.SeriesNames))
		for si := range series {
			series[si].Name = c.SeriesNames[si]
		}
		for _, pt := range c.Points {
			pr := prs[pt.Si*c.NumX+pt.Xi]
			if pr == nil {
				return nil, fmt.Errorf("scenario: missing result for point %q", pt.Label)
			}
			study.AppendPoint(&series[pt.Si], pt.X, ms.Name, pr)
		}
		panels[mi].Series = series
	}
	fig.Panels = panels
	return fig, nil
}

// Run executes the compiled scenario: the grid runs on one flattened worker
// pool via study.RunSweep (in doubling rounds under a precision target), honoring
// cfg's checkpoint, watchdog, and worker settings, and the results assemble
// into the figure. hooks stream progress; see study.SweepHooks.
func (c *Compiled) Run(ctx context.Context, cfg study.Config, hooks study.SweepHooks) (*study.Figure, error) {
	prs, err := study.RunSweep(ctx, c.Config(cfg), c.PointSpecs(), hooks)
	if err != nil {
		return nil, err
	}
	return c.Figure(prs)
}
