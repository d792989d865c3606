package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"ituaval/internal/core"
	"ituaval/internal/exact"
	"ituaval/internal/mc"
	"ituaval/internal/san"
	"ituaval/internal/study"
)

// exactMeasure is one measure an exact solve computes on application 0.
type exactMeasure struct {
	name string
	kind string // "unavailability", "unreliability" or "excluded"
	T    float64
}

// exactSize is one exact-solve workload: a topology of the analytic anchor
// family, the measures solved on it, and which rates each operation draws.
type exactSize struct {
	name                           string
	domains, hosts, apps, replicas int
	// drawDetect also draws ReplicaDetectRate; TotalAttackRate is always
	// drawn. Both stay positive, so every draw has the same state space.
	drawDetect bool
	measures   []exactMeasure
}

// exactAnchorSize is solve-bound: 7,275 lumped states whose five
// uniformization passes take most of the operation.
var exactAnchorSize = exactSize{
	name: "exact-anchor", domains: 4, hosts: 2, apps: 2, replicas: 2,
	measures: []exactMeasure{
		{"u5", "unavailability", 5}, {"u10", "unavailability", 10},
		{"r5", "unreliability", 5}, {"r10", "unreliability", 10},
		{"excl10", "excluded", 10},
	},
}

// exactWideSize is generation-bound: six single-host domains give 6,242
// states, but canonicalization and instantaneous-activity settling grow
// with the domain count far faster than the state count does.
var exactWideSize = exactSize{
	name: "exact-wide", domains: 6, hosts: 1, apps: 2, replicas: 2, drawDetect: true,
	measures: []exactMeasure{
		{"u10", "unavailability", 10}, {"r10", "unreliability", 10}, {"excl10", "excluded", 10},
	},
}

// exactWorkload solves the anchor family exactly: generation of the
// symmetry-lumped chain, then one uniformization per measure.
func exactWorkload(sz exactSize) *workload {
	return &workload{
		name:        sz.name,
		fixedCounts: true,
		setup: func(e *env) (instance, error) {
			x := &exactSolve{e: e, sz: sz}
			p := x.params(0)
			p.Analytic = true
			m, err := core.Build(p)
			if err != nil {
				return nil, err
			}
			if core.NewCanonicalizer(m) == nil {
				return nil, fmt.Errorf("%s: topology admits no symmetry lumping", sz.name)
			}
			return x, nil
		},
	}
}

type exactSolve struct {
	e  *env
	sz exactSize
}

// params returns operation i's configuration, with its drawn rates.
func (x *exactSolve) params(i int) core.Params {
	p := study.AnalyticAnchorParams()
	p.NumDomains, p.HostsPerDomain = x.sz.domains, x.sz.hosts
	p.NumApps, p.RepsPerApp = x.sz.apps, x.sz.replicas
	r := x.e.inputs(x.sz.name, uint64(i))
	p.TotalAttackRate = 2.5 + r.Float64()
	if x.sz.drawDetect {
		p.ReplicaDetectRate = 0.15 + 0.2*r.Float64()
	}
	return p
}

func (x *exactSolve) op(i int) (digest, error) {
	s, err := exact.NewSolver(x.params(i), exact.Options{Workers: workers})
	if err != nil {
		return digest{}, err
	}
	d := digest{Values: make(map[string]float64), Counts: chainCounts(s.C)}
	for _, ms := range x.sz.measures {
		var v float64
		switch ms.kind {
		case "unavailability":
			v, err = s.Unavailability(0, ms.T)
		case "unreliability":
			v, err = s.Unreliability(0, ms.T)
		default:
			v, err = s.FracDomainsExcluded(ms.T)
		}
		if err != nil {
			return digest{}, fmt.Errorf("%s: %w", ms.name, err)
		}
		if err := unit(ms.name, v); err != nil {
			return digest{}, err
		}
		d.Values[ms.name] = v
	}
	return d, nil
}

func chainCounts(c *mc.CTMC) map[string]int64 {
	return map[string]int64{"states": int64(c.NumStates()), "transitions": int64(c.NumTransitions())}
}

// canonSample is the share of canonicalizer calls timed, one in
// canonSample: timing every call would add two clock reads to a call of
// about a microsecond.
const canonSample = 8

// countingCanon wraps the canonicalizer handed to mc.Generate; it counts
// its calls, which run concurrently on the generation workers, and times a
// fixed sample of them.
type countingCanon struct {
	inner            mc.Canonicalizer
	calls, sampledNS atomic.Int64
}

func (c *countingCanon) Canonicalize(m []san.Marking) {
	if c.calls.Add(1)%canonSample != 0 {
		c.inner.Canonicalize(m)
		return
	}
	t0 := time.Now()
	c.inner.Canonicalize(m)
	c.sampledNS.Add(int64(time.Since(t0)))
}

// nsPerCall is the mean time of the sampled calls.
func (c *countingCanon) nsPerCall() float64 {
	return float64(c.sampledNS.Load()) / float64(c.calls.Load()/canonSample)
}

// traced calls what exact.NewSolver and the measure methods call, one layer
// at a time: model build, canonicalizer, chain generation, then one
// uniformization per measure on the same reward functions.
func (x *exactSolve) traced(i int, root *span) (digest, error) {
	p := x.params(i)
	p.Analytic = true
	sp := root.child("core.Build")
	m, err := core.Build(p)
	sp.end()
	if err != nil {
		return digest{}, err
	}
	sp = root.child("core.NewCanonicalizer")
	canon := core.NewCanonicalizer(m)
	sp.end()
	if canon == nil {
		return digest{}, fmt.Errorf("%s: topology admits no symmetry lumping", x.sz.name)
	}
	cc := &countingCanon{inner: canon}
	gen := root.child("mc.Generate")
	c, err := mc.Generate(m.SAN, mc.Options{Workers: workers, Canon: cc})
	gen.end()
	if err != nil {
		return digest{}, err
	}
	gen.count("states", float64(c.NumStates()))
	gen.count("transitions", float64(c.NumTransitions()))
	gen.count("canon_calls", float64(cc.calls.Load()))
	gen.count("canon_ns_per_call", cc.nsPerCall())

	d := digest{Values: make(map[string]float64), Counts: chainCounts(c)}
	for _, ms := range x.sz.measures {
		var v float64
		switch ms.kind {
		case "unavailability":
			sp = root.child("mc.IntervalAverageReward")
			v, err = c.IntervalAverageReward(ms.T, indicator(m.Improper(0)))
		case "unreliability":
			sp = root.child("mc.FirstPassageProb")
			v, err = c.FirstPassageProb(ms.T, m.Byzantine(0))
		default:
			sp = root.child("mc.TransientReward")
			excluded, n := m.DomainsExcluded, float64(m.Params.NumDomains)
			v, err = c.TransientReward(ms.T, func(st *san.State) float64 {
				return float64(st.Get(excluded)) / n
			})
		}
		sp.end()
		sp.count("measure."+ms.name, 1)
		if err != nil {
			return digest{}, fmt.Errorf("%s: %w", ms.name, err)
		}
		if err := unit(ms.name, v); err != nil {
			return digest{}, err
		}
		d.Values[ms.name] = v
	}
	return d, nil
}

// indicator lifts a predicate to a 0/1 rate reward, as exact.Solver does.
func indicator(pred func(*san.State) bool) func(*san.State) float64 {
	return func(s *san.State) float64 {
		if pred(s) {
			return 1
		}
		return 0
	}
}

func (x *exactSolve) repeatable() bool { return true }

func (x *exactSolve) layers(t *tracer, m map[string]float64) error {
	m["core.build_ms"] = 1e3 * median(t.seconds("core.Build"))
	var genS, perState, bytesPS, allocsPS, genUtil, calls, nsPerCall, share []float64
	for _, sp := range t.named("mc.Generate") {
		s, states := sp.seconds(), sp.Counts["states"]
		genS = append(genS, s)
		perState = append(perState, states/s)
		bytesPS = append(bytesPS, float64(sp.Bytes)/states)
		allocsPS = append(allocsPS, float64(sp.Objects)/states)
		genUtil = append(genUtil, sp.CPU.Seconds()/s)
		calls = append(calls, sp.Counts["canon_calls"])
		nsPerCall = append(nsPerCall, sp.Counts["canon_ns_per_call"])
		share = append(share, sp.Counts["canon_ns_per_call"]*sp.Counts["canon_calls"]/float64(sp.CPU.Nanoseconds()))
	}
	m["mc.generate_s"] = median(genS)
	m["mc.gen_states_per_s"] = median(perState)
	m["mc.gen_bytes_per_state"] = median(bytesPS)
	m["mc.gen_allocs_per_state"] = median(allocsPS)
	m["mc.gen_cpu_util"] = median(genUtil)
	m["core.canon_calls"] = median(calls)
	m["core.canon_ns_per_call"] = median(nsPerCall)
	m["core.canon_share"] = median(share)
	if g := t.named("mc.Generate"); len(g) > 0 {
		m["mc.states"] = g[0].Counts["states"]
		m["mc.transitions"] = g[0].Counts["transitions"]
	}

	// Per measure and in total, the median over operations of the solve
	// time; utilization is CPU over wall across all solves.
	perMeasure := make(map[string][]float64)
	var cpu, wall float64
	totals := make(map[int]float64)
	for _, name := range []string{"mc.IntervalAverageReward", "mc.FirstPassageProb", "mc.TransientReward"} {
		for _, sp := range t.named(name) {
			for k := range sp.Counts {
				perMeasure[k] = append(perMeasure[k], sp.seconds())
			}
			totals[sp.Op] += sp.seconds()
			cpu += sp.CPU.Seconds()
			wall += sp.seconds()
		}
	}
	for _, ms := range x.sz.measures {
		m["mc.solve_s."+ms.name] = median(perMeasure["measure."+ms.name])
	}
	var solve []float64
	for _, s := range totals {
		solve = append(solve, s)
	}
	m["mc.solve_s"] = median(solve)
	if wall > 0 {
		m["mc.solve_cpu_util"] = cpu / wall
	}
	return nil
}

func (x *exactSolve) close() error { return nil }
