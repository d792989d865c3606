// Package scenario is the declarative study layer: a JSON file describes a
// complete ITUA study — topology, attack mix, exclusion policy, detection
// and spread distributions, the measures to estimate, the sweep axes,
// seeds, and precision targets — and compiles into the exact core.Params /
// study.PointSpec shapes the hand-written figure runners build in Go. New
// workloads (partitioned topologies, correlated spread campaigns, policy
// grids) then become data instead of code, which is what the job server
// (internal/server) serves at scale.
//
// Parsing is strict: unknown fields and trailing data are rejected, every
// rate and probability is bound-checked (including NaN/Inf, which JSON
// cannot spell but a Scenario built in Go can carry into Compile), every
// grid point must pass core.Params.Validate, and seed offsets across the
// grid must fit in uint64 and be collision-free. Compiled scenarios
// canonicalize deterministically, so a SHA-256 of the canonical bytes
// content-addresses the study's results: equal hashes guarantee
// bit-identical results.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// Scenario is the top-level declarative study spec.
type Scenario struct {
	// Name identifies the scenario (required).
	Name string `json:"name"`
	// Description is free text for listings.
	Description string `json:"description,omitempty"`
	// Figure controls the rendered figure's id and title; both default to
	// Name.
	Figure FigureMeta `json:"figure,omitempty"`
	// Model configures the ITUA model; absent fields keep the paper's
	// baseline (core.DefaultParams). The four topology fields are required.
	Model Model `json:"model"`
	// Horizon is the simulation end time in hours (required, > 0).
	Horizon float64 `json:"horizon"`
	// Measures are the reward variables to estimate (at least one). Each
	// measure renders as one figure panel.
	Measures []Measure `json:"measures"`
	// Sweep, when present, evaluates the measures over a parameter grid;
	// absent, the scenario is a single point.
	Sweep *Sweep `json:"sweep,omitempty"`
	// Run sets the replication schedule and seeds; zero fields take the
	// compiler's defaults (2000 replications, seed 1).
	Run Run `json:"run,omitempty"`
}

// FigureMeta names the rendered figure.
type FigureMeta struct {
	ID    string `json:"id,omitempty"`
	Title string `json:"title,omitempty"`
}

// Model mirrors core.Params declaratively. Pointer fields distinguish "not
// given, keep the paper default" from an explicit zero.
type Model struct {
	// Topology (all required).
	Domains        int `json:"domains"`
	HostsPerDomain int `json:"hostsPerDomain"`
	Apps           int `json:"apps"`
	RepsPerApp     int `json:"repsPerApp"`

	// Policy is "domain-exclusion" (default) or "host-exclusion".
	Policy string `json:"policy,omitempty"`
	// Placement is "uniform" (default), "least-loaded", or
	// "weighted-random".
	Placement string `json:"placement,omitempty"`

	TotalAttackRate    *float64 `json:"totalAttackRate,omitempty"`
	AttackSplitHost    *float64 `json:"attackSplitHost,omitempty"`
	AttackSplitReplica *float64 `json:"attackSplitReplica,omitempty"`
	AttackSplitMgr     *float64 `json:"attackSplitMgr,omitempty"`

	TotalFalseAlarmRate *float64 `json:"totalFalseAlarmRate,omitempty"`
	FalseSplitHost      *float64 `json:"falseSplitHost,omitempty"`
	FalseSplitReplica   *float64 `json:"falseSplitReplica,omitempty"`

	PScript      *float64 `json:"pScript,omitempty"`
	PExploratory *float64 `json:"pExploratory,omitempty"`
	PInnovative  *float64 `json:"pInnovative,omitempty"`

	DetectScript      *float64 `json:"detectScript,omitempty"`
	DetectExploratory *float64 `json:"detectExploratory,omitempty"`
	DetectInnovative  *float64 `json:"detectInnovative,omitempty"`
	DetectReplica     *float64 `json:"detectReplica,omitempty"`
	DetectMgr         *float64 `json:"detectMgr,omitempty"`

	HostDetectRate    *float64 `json:"hostDetectRate,omitempty"`
	ReplicaDetectRate *float64 `json:"replicaDetectRate,omitempty"`
	MgrDetectRate     *float64 `json:"mgrDetectRate,omitempty"`

	DomainSpreadRate *float64 `json:"domainSpreadRate,omitempty"`
	SystemSpreadRate *float64 `json:"systemSpreadRate,omitempty"`
	SpreadRateCoeff  *float64 `json:"spreadRateCoeff,omitempty"`
	AssetSpreadCoeff *float64 `json:"assetSpreadCoeff,omitempty"`

	CorruptionMult *float64 `json:"corruptionMult,omitempty"`
	MisbehaveRate  *float64 `json:"misbehaveRate,omitempty"`
	RecoveryRate   *float64 `json:"recoveryRate,omitempty"`

	// Environment faults: network partitions severing a random domain pair,
	// correlated attack campaigns corrupting a Binomial(campaignSize,
	// campaignProb) batch of hosts per firing, and a bounded repair crew
	// (see the matching core.Params fields).
	PartitionRate     *float64 `json:"partitionRate,omitempty"`
	PartitionHealRate *float64 `json:"partitionHealRate,omitempty"`
	CampaignRate      *float64 `json:"campaignRate,omitempty"`
	CampaignProb      *float64 `json:"campaignProb,omitempty"`
	CampaignSize      int      `json:"campaignSize,omitempty"`
	RepairCrew        int      `json:"repairCrew,omitempty"`

	RateBaseHosts    int `json:"rateBaseHosts,omitempty"`
	RateBaseReplicas int `json:"rateBaseReplicas,omitempty"`

	ExcludeOnReplicaConviction bool `json:"excludeOnReplicaConviction,omitempty"`
	// Analytic sets core.Params.Analytic, which is inert: the intrusions
	// counter latches at 1 in every mode. The field is kept so existing
	// scenario documents still decode.
	Analytic bool `json:"analytic,omitempty"`
}

// Measure is one reward variable and its figure panel.
type Measure struct {
	// Name is the variable's name in results tables (required, unique).
	Name string `json:"name"`
	// Kind selects the measure constructor; see measureKinds.
	Kind string `json:"kind"`
	// App is the application index for per-application measures.
	App int `json:"app,omitempty"`
	// From is the interval start of "unavailability" (default 0).
	From float64 `json:"from,omitempty"`
	// To is the interval end / evaluation instant of timed measures;
	// defaults to the scenario horizon.
	To float64 `json:"to,omitempty"`
	// Panel is the rendered panel's id (default: Name).
	Panel string `json:"panel,omitempty"`
	// Label is the rendered panel's measure description (default: Kind).
	Label string `json:"label,omitempty"`
}

// Sweep is the parameter grid: a numeric X axis, and optionally a second
// axis rendered as one series per value.
type Sweep struct {
	X      Axis   `json:"x"`
	Series *Axis  `json:"series,omitempty"`
	XLabel string `json:"xLabel,omitempty"`
}

// Axis sweeps one model parameter. Numeric parameters list Values; the
// enum parameters "policy" and "placement" list Strings.
type Axis struct {
	// Param is the Model field to sweep (same lowerCamel spelling as the
	// model block, e.g. "domainSpreadRate", "corruptionMult", "policy").
	Param string `json:"param"`
	// Values are the numeric sweep values (integer-valued for topology
	// parameters).
	Values []float64 `json:"values,omitempty"`
	// Strings are the enum sweep values (policy/placement axes only).
	Strings []string `json:"strings,omitempty"`
	// Labels name the series of a series axis (default "param=value").
	// Ignored on the X axis.
	Labels []string `json:"labels,omitempty"`
	// SeedStride is the seed-offset distance between consecutive axis
	// values (default 1 on the X axis, and on the series axis the smallest
	// power of ten covering the X axis, so grids never collide by default).
	SeedStride uint64 `json:"seedStride,omitempty"`
}

// Run sets effort and seeds. It is part of the content address: two
// scenarios differing only in Run produce different results and different
// hashes.
type Run struct {
	// Reps is the replication count per grid point (default 2000); with a
	// precision target it is the initial batch instead.
	Reps int `json:"reps,omitempty"`
	// Seed is the root seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// SeedOffset is the base seed offset of the whole grid, added to every
	// point's axis-derived offset. It exists so a scenario can reproduce a
	// registry study's exact seed schedule.
	SeedOffset uint64 `json:"seedOffset,omitempty"`
	// TargetRelHW / TargetAbsHW switch every grid point to sequential
	// precision mode (see study.Config).
	TargetRelHW float64 `json:"targetRelHW,omitempty"`
	TargetAbsHW float64 `json:"targetAbsHW,omitempty"`
	// MaxReps bounds precision mode (default 16×Reps; at least Reps).
	MaxReps int `json:"maxReps,omitempty"`
}

// MaxBytes bounds the accepted input size: scenario files are a few KB;
// anything larger is rejected before JSON work begins.
const MaxBytes = 1 << 20

// Parse decodes a scenario from JSON. Decoding is strict — unknown fields
// and trailing data are errors — and the result is validated structurally;
// grid-level checks (parameter bounds per point, seed offsets) run in
// Compile.
func Parse(data []byte) (*Scenario, error) {
	if len(data) > MaxBytes {
		return nil, fmt.Errorf("scenario: input exceeds %d bytes", MaxBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// A clean parse leaves exactly EOF behind: a second decode that
	// succeeds (a trailing value) or fails with anything but EOF (trailing
	// garbage) both mean extra input.
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) || len(bytes.TrimSpace(trailing)) > 0 {
		return nil, fmt.Errorf("scenario: trailing data after the scenario object")
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// finite reports whether x is a usable number (not NaN or ±Inf).
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// validate performs the structural checks that need no model construction.
func (sc *Scenario) validate() error {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	if strings.TrimSpace(sc.Name) == "" {
		bad("name is required")
	}
	if !finite(sc.Horizon) || sc.Horizon <= 0 {
		bad("horizon must be a finite positive number of hours, got %v", sc.Horizon)
	}
	sc.Model.check(bad)
	if len(sc.Measures) == 0 {
		bad("at least one measure is required")
	}
	seen := make(map[string]bool, len(sc.Measures))
	for i := range sc.Measures {
		sc.Measures[i].check(sc, bad)
		if name := sc.Measures[i].Name; name != "" {
			if seen[name] {
				bad("measure name %q repeats", name)
			}
			seen[name] = true
		}
	}
	if sc.Sweep != nil {
		sc.Sweep.check(bad)
	}
	sc.Run.check(bad)
	if len(errs) > 0 {
		return fmt.Errorf("scenario: invalid spec:\n  - %s", strings.Join(errs, "\n  - "))
	}
	return nil
}

// check validates the pointer-rate fields for NaN/Inf, which only a
// Scenario built in Go can carry — the bound checks proper happen per grid
// point via core.Params.Validate, which cannot see non-finite values (NaN
// compares false against every bound).
func (m *Model) check(bad func(string, ...any)) {
	for _, f := range []struct {
		name string
		v    *float64
	}{
		{"totalAttackRate", m.TotalAttackRate},
		{"attackSplitHost", m.AttackSplitHost},
		{"attackSplitReplica", m.AttackSplitReplica},
		{"attackSplitMgr", m.AttackSplitMgr},
		{"totalFalseAlarmRate", m.TotalFalseAlarmRate},
		{"falseSplitHost", m.FalseSplitHost},
		{"falseSplitReplica", m.FalseSplitReplica},
		{"pScript", m.PScript},
		{"pExploratory", m.PExploratory},
		{"pInnovative", m.PInnovative},
		{"detectScript", m.DetectScript},
		{"detectExploratory", m.DetectExploratory},
		{"detectInnovative", m.DetectInnovative},
		{"detectReplica", m.DetectReplica},
		{"detectMgr", m.DetectMgr},
		{"hostDetectRate", m.HostDetectRate},
		{"replicaDetectRate", m.ReplicaDetectRate},
		{"mgrDetectRate", m.MgrDetectRate},
		{"domainSpreadRate", m.DomainSpreadRate},
		{"systemSpreadRate", m.SystemSpreadRate},
		{"spreadRateCoeff", m.SpreadRateCoeff},
		{"assetSpreadCoeff", m.AssetSpreadCoeff},
		{"corruptionMult", m.CorruptionMult},
		{"misbehaveRate", m.MisbehaveRate},
		{"recoveryRate", m.RecoveryRate},
		{"partitionRate", m.PartitionRate},
		{"partitionHealRate", m.PartitionHealRate},
		{"campaignRate", m.CampaignRate},
		{"campaignProb", m.CampaignProb},
	} {
		if f.v != nil && !finite(*f.v) {
			bad("model.%s must be finite, got %v", f.name, *f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"domains", m.Domains},
		{"hostsPerDomain", m.HostsPerDomain},
		{"apps", m.Apps},
		{"repsPerApp", m.RepsPerApp},
	} {
		if f.v <= 0 {
			bad("model.%s must be a positive integer, got %d", f.name, f.v)
		}
	}
	if m.RateBaseHosts < 0 || m.RateBaseReplicas < 0 {
		bad("model.rateBaseHosts/rateBaseReplicas must be >= 0")
	}
	if m.CampaignSize < 0 || m.RepairCrew < 0 {
		bad("model.campaignSize/repairCrew must be >= 0")
	}
	if m.Policy != "" {
		if _, err := parsePolicy(m.Policy); err != nil {
			bad("model.policy: %v", err)
		}
	}
	if m.Placement != "" {
		if _, err := parsePlacement(m.Placement); err != nil {
			bad("model.placement: %v", err)
		}
	}
}

func (ms *Measure) check(sc *Scenario, bad func(string, ...any)) {
	if strings.TrimSpace(ms.Name) == "" {
		bad("measure names are required")
	}
	k, ok := measureKinds[ms.Kind]
	if !ok {
		bad("measure %q: unknown kind %q (known: %s)", ms.Name, ms.Kind, strings.Join(MeasureKinds(), ", "))
		return
	}
	if !finite(ms.From) || !finite(ms.To) {
		bad("measure %q: from/to must be finite", ms.Name)
		return
	}
	to := ms.To
	if to == 0 {
		to = sc.Horizon
	}
	if k.timed && (to <= 0 || to > sc.Horizon) {
		bad("measure %q: to must be in (0, horizon=%g], got %g", ms.Name, sc.Horizon, to)
	}
	if ms.Kind == "unavailability" && (ms.From < 0 || ms.From >= to) {
		bad("measure %q: from must be in [0, to=%g), got %g", ms.Name, to, ms.From)
	}
	if !k.perApp && ms.App != 0 {
		bad("measure %q: kind %q takes no app index", ms.Name, ms.Kind)
	}
	if k.perApp && ms.App < 0 {
		bad("measure %q: app must be >= 0, got %d", ms.Name, ms.App)
	}
}

func (sw *Sweep) check(bad func(string, ...any)) {
	sw.X.check("sweep.x", false, bad)
	if sw.Series != nil {
		sw.Series.check("sweep.series", true, bad)
	}
}

func (ax *Axis) check(where string, series bool, bad func(string, ...any)) {
	p, known := axisParams[ax.Param]
	if !known {
		bad("%s: unknown sweep parameter %q (known: %s)", where, ax.Param, strings.Join(AxisParams(), ", "))
		return
	}
	if len(ax.Values) > 0 && len(ax.Strings) > 0 {
		bad("%s: values and strings are mutually exclusive", where)
		return
	}
	n := len(ax.Values) + len(ax.Strings)
	if n == 0 {
		bad("%s: at least one sweep value is required", where)
		return
	}
	if len(ax.Strings) > 0 && !p.enum {
		bad("%s: parameter %q is numeric; use values", where, ax.Param)
		return
	}
	if len(ax.Values) > 0 && p.enum {
		bad("%s: parameter %q is an enum; use strings", where, ax.Param)
	}
	if p.enum && !series {
		// The X axis is the plot abscissa, which must be numeric.
		bad("%s: enum parameter %q can only be a series axis", where, ax.Param)
	}
	for _, v := range ax.Values {
		if !finite(v) {
			bad("%s: sweep values must be finite, got %v", where, v)
		} else if p.integer && v != math.Trunc(v) {
			bad("%s: parameter %q takes integers, got %v", where, ax.Param, v)
		}
	}
	for _, s := range ax.Strings {
		if err := p.checkEnum(s); err != nil {
			bad("%s: %v", where, err)
		}
	}
	if len(ax.Labels) > 0 && len(ax.Labels) != n {
		bad("%s: %d labels for %d values", where, len(ax.Labels), n)
	}
	if !series && len(ax.Labels) > 0 {
		bad("%s: labels are only used on the series axis", where)
	}
}

func (r *Run) check(bad func(string, ...any)) {
	if r.Reps < 0 {
		bad("run.reps must be >= 0, got %d", r.Reps)
	}
	if r.MaxReps < 0 {
		bad("run.maxReps must be >= 0, got %d", r.MaxReps)
	}
	if !finite(r.TargetRelHW) || r.TargetRelHW < 0 {
		bad("run.targetRelHW must be finite and >= 0, got %v", r.TargetRelHW)
	}
	if !finite(r.TargetAbsHW) || r.TargetAbsHW < 0 {
		bad("run.targetAbsHW must be finite and >= 0, got %v", r.TargetAbsHW)
	}
}
