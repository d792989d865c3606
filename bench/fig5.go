package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ituaval/internal/core"
	"ituaval/internal/reward"
	"ituaval/internal/rng"
	"ituaval/internal/scenario"
	"ituaval/internal/sim"
	"ituaval/internal/study"
)

// fig5Size sets the replications per grid point of one Figure-5 sweep.
type fig5Size struct {
	reps       int
	ladderReps int // single-threaded replications per point in the sim ladder
}

// fig5Workload regenerates the paper's Figure 5 from its scenario document:
// 12 points of the 10x3 topology with 4 applications of 7 replicas. It
// loads the simulation hot path (sim, san, reward, rng) and never reaches
// mc, rsm or server.
func fig5Workload(sz fig5Size) *workload {
	return &workload{
		name: "fig5-sweep",
		setup: func(e *env) (instance, error) {
			data, err := os.ReadFile(e.scenarioPath("fig5.json"))
			if err != nil {
				return nil, err
			}
			sc, err := scenario.Parse(data)
			if err != nil {
				return nil, err
			}
			if _, err := scenario.Compile(sc, scenario.Defaults{}); err != nil {
				return nil, err
			}
			return &fig5{e: e, sz: sz, sc: sc}, nil
		},
	}
}

type fig5 struct {
	e  *env
	sz fig5Size
	sc *scenario.Scenario
	// first is the first traced operation's compiled scenario, which the
	// sim ladder replays, so its counts repeat exactly at one seed.
	first *scenario.Compiled
}

// input returns operation i's document: Figure 5 at the workload's
// replication count and a seed drawn for the operation.
func (f *fig5) input(i int) *scenario.Scenario {
	sc := *f.sc
	sc.Run.Reps = f.sz.reps
	sc.Run.Seed = simSeed(f.e.inputs("fig5-sweep", uint64(i)))
	return &sc
}

func (f *fig5) op(i int) (digest, error) {
	c, err := scenario.Compile(f.input(i), scenario.Defaults{})
	if err != nil {
		return digest{}, err
	}
	fig, err := c.Run(context.Background(), study.Config{Workers: workers}, study.SweepHooks{})
	if err != nil {
		return digest{}, err
	}
	return figureDigest(fig, f.sz.reps)
}

// traced runs what Compiled.Run runs, one layer at a time: the sweep, then
// the figure assembly. Each grid point becomes a span from its first
// finished replication to its completion, as reported by the sweep hooks.
func (f *fig5) traced(i int, root *span) (digest, error) {
	sp := root.child("scenario.Compile")
	c, err := scenario.Compile(f.input(i), scenario.Defaults{})
	sp.end()
	if err != nil {
		return digest{}, err
	}
	if f.first == nil {
		f.first = c
	}

	n := len(c.Points)
	first := make([]atomic.Int64, n)
	done := make([]time.Time, n)
	var mu sync.Mutex
	hooks := study.SweepHooks{
		OnRep: func(p int) { first[p].CompareAndSwap(0, time.Now().UnixNano()) },
		OnPoint: func(p int, _ *study.PointResult) {
			now := time.Now()
			mu.Lock()
			done[p] = now
			mu.Unlock()
		},
	}
	sweep := root.child("study.RunSweep")
	prs, err := study.RunSweep(context.Background(), c.Config(study.Config{Workers: workers}), c.PointSpecs(), hooks)
	sweep.end()
	if err != nil {
		return digest{}, err
	}
	sweep.count("reps", float64(c.TotalReps()))
	for p := 0; p < n; p++ {
		root.tr.add(sweep, "study.point", time.Unix(0, first[p].Load()), done[p])
	}

	sp = root.child("scenario.Figure")
	fig, err := c.Figure(prs)
	sp.end()
	if err != nil {
		return digest{}, err
	}
	sp = root.child("study.WriteCSV")
	d, err := figureDigest(fig, f.sz.reps)
	sp.end()
	return d, err
}

func (f *fig5) repeatable() bool { return true }

func (f *fig5) layers(t *tracer, m map[string]float64) error {
	m["scenario.compile_ms"] = 1e3 * median(t.seconds("scenario.Compile"))
	var walls, rates, utils []float64
	for _, sp := range t.named("study.RunSweep") {
		s := sp.seconds()
		walls = append(walls, s)
		rates = append(rates, sp.Counts["reps"]/s)
		utils = append(utils, sp.CPU.Seconds()/s)
	}
	points := t.seconds("study.point")
	m["study.sweep_s"] = median(walls)
	m["study.reps_per_s"] = median(rates)
	m["study.cpu_util"] = median(utils)
	m["study.point_s_p50"] = median(points)
	if len(points) > 0 {
		m["study.point_s_max"] = sorted(points)[len(points)-1]
	}
	if f.first == nil {
		return nil
	}
	return f.simLadder(t, m)
}

// simLadder replays the first traced sweep's grid point by point on one
// engine, single-threaded, on the sweep's own replication streams: once
// with the scenario's reward observers and once without, so the observer
// share of a replication shows.
func (f *fig5) simLadder(t *tracer, m map[string]float64) error {
	c := f.first
	ladder := t.begin(nil, -1, "ladder.sim")
	defer ladder.end()
	cfg := c.Config(study.Config{})
	var builds, repUS []float64
	var firings int64
	var withObs, withoutObs time.Duration
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for _, ps := range c.PointSpecs() {
		t0 := time.Now()
		model, err := core.Build(ps.Params)
		if err != nil {
			return err
		}
		builds = append(builds, time.Since(t0).Seconds())
		vars := ps.Vars(model)
		eng := sim.NewEngine(model.SAN, false)
		seeds := rng.New(cfg.Seed + ps.SeedOffset)
		for rep := 0; rep < f.sz.ladderReps; rep++ {
			obs := make([]reward.Observer, len(vars))
			for k, v := range vars {
				obs[k] = v.NewObserver()
			}
			t0 := time.Now()
			if err := eng.RunOnce(ps.Until, seeds.Derive(uint64(rep)), obs, 0); err != nil {
				return fmt.Errorf("sim ladder: %w", err)
			}
			d := time.Since(t0)
			withObs += d
			repUS = append(repUS, d.Seconds()*1e6)
			firings += eng.Firings()
		}
		for rep := 0; rep < f.sz.ladderReps; rep++ {
			t0 := time.Now()
			if err := eng.RunOnce(ps.Until, seeds.Derive(uint64(rep)), nil, 0); err != nil {
				return fmt.Errorf("sim ladder: %w", err)
			}
			withoutObs += time.Since(t0)
		}
	}
	runtime.ReadMemStats(&ms)
	reps := float64(len(repUS))
	m["core.build_ms"] = 1e3 * mean(builds)
	m["sim.rep_us_p50"] = median(repUS)
	if v, ok := percentile(repUS, 99); ok {
		m["sim.rep_us_p99"] = v
	}
	m["sim.firings_per_rep"] = float64(firings) / reps
	m["sim.events_per_s"] = float64(firings) / withObs.Seconds()
	// Both passes allocate; the observer pass allocates the observers too.
	m["sim.allocs_per_rep"] = float64(ms.Mallocs-mallocs) / (2 * reps)
	m["reward.observer_share"] = 1 - withoutObs.Seconds()/withObs.Seconds()
	return nil
}

func (f *fig5) close() error { return nil }

// figureDigest checks a rendered figure and hashes its CSV: every point ran
// every requested replication, and every estimate is a probability with a
// finite, non-negative half-width.
func figureDigest(fig *study.Figure, reps int) (digest, error) {
	for _, p := range fig.Panels {
		for _, s := range p.Series {
			for k := range s.X {
				at := fmt.Sprintf("panel %s, %s, x=%g", p.ID, s.Name, s.X[k])
				if s.Reps[k] != reps || s.Completed[k] != reps || s.Failed[k] != 0 || s.Skipped[k] != 0 {
					return digest{}, fmt.Errorf("%s: %d/%d/%d completed/failed/skipped of %d, want all %d completed",
						at, s.Completed[k], s.Failed[k], s.Skipped[k], s.Reps[k], reps)
				}
				if err := unit(at, s.Y[k]); err != nil {
					return digest{}, err
				}
				if !(s.HW[k] >= 0) || s.HW[k] > 1 {
					return digest{}, fmt.Errorf("%s: half-width %v", at, s.HW[k])
				}
			}
		}
	}
	var b bytes.Buffer
	if err := fig.WriteCSV(&b); err != nil {
		return digest{}, err
	}
	return digest{SHA256: sha(b.Bytes())}, nil
}
