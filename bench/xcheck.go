package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"ituaval/internal/core"
	"ituaval/internal/groupcomm"
	"ituaval/internal/integrity"
	"ituaval/internal/ituadirect"
	"ituaval/internal/reward"
	"ituaval/internal/rng"
	"ituaval/internal/rsm"
	"ituaval/internal/rsm/inject"
	"ituaval/internal/sim"
	"ituaval/internal/stats"
)

// xcheckSize sets the replications of each cross-check arm.
type xcheckSize struct {
	reps, liveReps int
	T              float64
	ladderOps      int // iterations of each layer-ladder probe
}

// xcheckParams is the Figure-5 configuration at spread rate 4 under domain
// exclusion: a 7-replica group, the paper's size, for the live arm.
func xcheckParams() core.Params {
	p := core.DefaultParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 10, 3, 4, 7
	p.CorruptionMult = 5
	p.DomainSpreadRate = 4
	p.Policy = core.DomainExclusion
	return p
}

// xcheckWorkload runs the attack process three ways (SAN model, direct
// simulator, fault injector driving the live replica group) through
// integrity.CrossCheck, with the exact arm off.
func xcheckWorkload(sz xcheckSize) *workload {
	return &workload{
		name: "live-xcheck",
		setup: func(e *env) (instance, error) {
			p := xcheckParams()
			if _, err := core.Build(p); err != nil {
				return nil, err
			}
			return &xcheck{e: e, sz: sz, p: p}, nil
		},
	}
}

type xcheck struct {
	e  *env
	sz xcheckSize
	p  core.Params
	// directUS collects the direct simulator's per-replication times
	// across traced operations.
	directUS []float64
	// firstSeed is the first traced operation's seed; the inject ladder
	// replays its live streams.
	firstSeed uint64
}

func (x *xcheck) seed(i int) uint64 { return simSeed(x.e.inputs("live-xcheck", uint64(i))) }

func (x *xcheck) op(i int) (digest, error) {
	r, err := integrity.CrossCheck(context.Background(), x.p, integrity.CrossCheckOptions{
		Reps: x.sz.reps, T: x.sz.T, Seed: x.seed(i), Workers: workers,
		Live: true, LiveReps: x.sz.liveReps,
	})
	if err != nil {
		return digest{}, err
	}
	return xcheckDigest(r.Measures, r.LiveProbes, r.LiveDivergences)
}

// xcheckDigest checks a cross-check's measures and summarizes them. The
// live service must never diverge from the model oracle. The arms must
// agree grossly: CrossCheck.Agree's 95% interval overlap fails by chance
// on a few percent of seeds, so the gate allows twice the summed
// half-widths, which honest arms exceed with negligible probability.
func xcheckDigest(ms []integrity.MeasureAgreement, probes, divergences int64) (digest, error) {
	if divergences != 0 {
		return digest{}, fmt.Errorf("live service diverged from the model oracle on %d of %d probes", divergences, probes)
	}
	d := digest{Values: make(map[string]float64), Counts: map[string]int64{"probes": probes}}
	for _, a := range ms {
		arms := []struct {
			arm        string
			mean, half float64
		}{{"san", a.SANMean, a.SANHalf}, {"direct", a.DirectMean, a.DirectHalf}, {"live", a.LiveMean, a.LiveHalf}}
		for k, x := range arms {
			if err := unit(a.Name+"."+x.arm, x.mean); err != nil {
				return digest{}, err
			}
			d.Values[a.Name+"."+x.arm] = x.mean
			for _, y := range arms[k+1:] {
				if math.Abs(x.mean-y.mean) > 2*(x.half+y.half) {
					return digest{}, fmt.Errorf("%s: %s %.4g ± %.2g and %s %.4g ± %.2g disagree", a.Name,
						x.arm, x.mean, x.half, y.arm, y.mean, y.half)
				}
			}
		}
	}
	return d, nil
}

// traced runs CrossCheck's arms one by one with its seeds S, S+1 and S+2.
func (x *xcheck) traced(i int, root *span) (digest, error) {
	ctx := context.Background()
	seed, T, p := x.seed(i), x.sz.T, x.p
	if x.firstSeed == 0 {
		x.firstSeed = seed
	}
	sp := root.child("core.Build")
	m, err := core.Build(p)
	sp.end()
	if err != nil {
		return digest{}, err
	}

	sp = root.child("integrity.san_arm")
	res, err := sim.RunContext(ctx, sim.Spec{
		Model: m.SAN, Until: T, Reps: x.sz.reps, Seed: seed, Workers: workers,
		Vars: []reward.Var{
			m.Unavailability("unavail", 0, 0, T),
			m.Unreliability("unrel", 0, T),
			m.FracDomainsExcluded("excl", T),
		},
		Invariants: integrity.ITUAInvariants(m),
	})
	sp.end()
	if err != nil {
		return digest{}, err
	}
	if res.Failed > 0 {
		return digest{}, fmt.Errorf("SAN arm failed %d of %d replications: %w", res.Failed, res.Reps, &res.Failures[0])
	}

	sp = root.child("integrity.direct_arm")
	var unavail, unrel, excl stats.Accumulator
	seeds := rng.New(seed + 1)
	for rep := 0; rep < x.sz.reps; rep++ {
		t0 := time.Now()
		dr, err := ituadirect.RunContext(ctx, p, seeds.Derive(uint64(rep)), []float64{T})
		x.directUS = append(x.directUS, time.Since(t0).Seconds()*1e6)
		if err != nil {
			sp.end()
			return digest{}, err
		}
		unavail.Add(dr.UnavailTime[0] / T)
		unrel.Add(b01(dr.ByzantineBy[0]))
		excl.Add(dr.FracDomainsExcluded[0])
	}
	sp.end()
	sp.count("reps", float64(x.sz.reps))

	sp = root.child("integrity.live_arm")
	live, err := rsm.Run(ctx, rsm.Spec{Params: p, T: T, Reps: x.sz.liveReps, Seed: seed + 2, Workers: workers})
	sp.end()
	if err != nil {
		return digest{}, err
	}
	sp.count("probes", float64(live.Probes))
	sp.count("divergences", float64(live.Divergences))
	sp.count("failed", float64(live.Failed))

	var ms []integrity.MeasureAgreement
	for _, c := range []struct {
		name         string
		direct, live *stats.Accumulator
	}{{"unavail", &unavail, &live.Unavail}, {"unrel", &unrel, &live.Unrel}, {"excl", &excl, &live.FracExcl}} {
		est := res.MustGet(c.name)
		ms = append(ms, integrity.MeasureAgreement{
			Name: c.name, SANMean: est.Mean, SANHalf: est.HalfWidth95,
			DirectMean: c.direct.Mean(), DirectHalf: c.direct.HalfWidth(0.95),
			LiveMean: c.live.Mean(), LiveHalf: c.live.HalfWidth(0.95), HasLive: true,
		})
	}
	return xcheckDigest(ms, live.Probes, live.Divergences)
}

func b01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (x *xcheck) repeatable() bool { return true }

func (x *xcheck) layers(t *tracer, m map[string]float64) error {
	m["integrity.san_arm_s"] = median(t.seconds("integrity.san_arm"))
	m["integrity.direct_arm_s"] = median(t.seconds("integrity.direct_arm"))
	m["integrity.live_arm_s"] = median(t.seconds("integrity.live_arm"))
	m["ituadirect.rep_us_p50"] = median(x.directUS)
	if v, ok := percentile(x.directUS, 99); ok {
		m["ituadirect.rep_us_p99"] = v
	}
	var allocs []float64
	for _, sp := range t.named("integrity.direct_arm") {
		allocs = append(allocs, float64(sp.Objects)/sp.Counts["reps"])
	}
	m["ituadirect.allocs_per_rep"] = median(allocs)

	var rate, perProbe, allocsPerProbe, divergences, failed []float64
	for k, sp := range t.named("integrity.live_arm") {
		probes := sp.Counts["probes"]
		if k == 0 {
			m["rsm.probes"] = probes
		}
		rate = append(rate, probes/sp.seconds())
		perProbe = append(perProbe, 1e6*sp.seconds()/probes)
		allocsPerProbe = append(allocsPerProbe, float64(sp.Objects)/probes)
		divergences = append(divergences, sp.Counts["divergences"])
		failed = append(failed, sp.Counts["failed"])
	}
	m["rsm.probes_per_s"] = median(rate)
	m["rsm.probe_us"] = median(perProbe)
	m["rsm.allocs_per_probe"] = median(allocsPerProbe)
	m["rsm.divergences"] = sum(divergences)
	m["rsm.failed_reps"] = sum(failed)
	if x.firstSeed == 0 {
		return nil
	}
	ladder := t.begin(nil, -1, "ladder.rsm")
	defer ladder.end()
	return x.ladder(m)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ladder times the layers under the live arm in isolation, at the Fig-5
// group size: the injector on the live arm's own streams, a reliable
// broadcast, one transport message, and one codec round trip.
func (x *xcheck) ladder(m map[string]float64) error {
	var events, steps int
	t0 := time.Now()
	seeds := rng.New(x.firstSeed + 2)
	for rep := 0; rep < x.sz.liveReps; rep++ {
		proc, err := inject.New(x.p, seeds.Derive(uint64(rep)).RoleNamed("inject"), inject.Hooks{})
		if err != nil {
			return err
		}
		for now := 0.0; ; {
			dt, fired := proc.Step(x.sz.T - now)
			steps++
			now += dt
			if !fired {
				break
			}
			events++
		}
	}
	m["inject.events_per_rep"] = float64(events) / float64(x.sz.liveReps)
	m["inject.step_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(steps)

	n := x.p.RepsPerApp
	t0 = time.Now()
	for k := 0; k < x.sz.ladderOps; k++ {
		r := groupcomm.ReliableBroadcast(groupcomm.Group{N: n}, 0, "v")
		if r.Err != nil || len(r.Delivered) != n {
			return fmt.Errorf("broadcast ladder: %d of %d delivered (%v)", len(r.Delivered), n, r.Err)
		}
	}
	m["groupcomm.broadcast_us"] = time.Since(t0).Seconds() * 1e6 / float64(x.sz.ladderOps)

	tr := rsm.NewTransport(rng.New(x.firstSeed), 1e-6, 0)
	for id := 0; id < n; id++ {
		tr.Register(rsm.NodeID(id), id)
	}
	payload := rsm.WireMsg{Kind: rsm.KindEcho, Probe: 1, From: 0, Value: "v"}.Encode()
	msgs := 100 * x.sz.ladderOps
	t0 = time.Now()
	for k := 0; k < msgs; k++ {
		tr.Send(rsm.NodeID(k%n), rsm.NodeID((k+1)%n), payload, false)
		if got := tr.DeliverBatch(); len(got) != 1 {
			return fmt.Errorf("transport ladder: batch of %d packets, want 1", len(got))
		}
	}
	m["rsm.transport_msg_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(msgs)

	msg := rsm.WireMsg{Kind: rsm.KindReady, Probe: 42, Attempt: 1, From: 3, Value: "value"}
	t0 = time.Now()
	for k := 0; k < msgs; k++ {
		got, err := rsm.Decode(msg.Encode())
		if err != nil || got != msg {
			return fmt.Errorf("codec ladder: round trip gave %+v, %v", got, err)
		}
	}
	m["rsm.codec_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(msgs)
	return nil
}

func (x *xcheck) close() error { return nil }
