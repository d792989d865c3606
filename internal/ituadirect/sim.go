// Package ituadirect is an independent re-implementation of the ITUA
// stochastic process as a direct continuous-time simulation (Gillespie-style
// stochastic simulation algorithm over explicit entity state), sharing no
// mechanism with the SAN formalism, the composed-model machinery, or the
// event-heap engine in internal/sim. Agreement between the two
// implementations on every measure is the strongest internal-validation
// evidence this reproduction offers: the probability of both encodings of
// the model being wrong in the same way is small.
//
// Because every timer in the ITUA model is exponential, the process is a
// CTMC and the SSA (total-rate jump sampling) is exact.
//
// The process is also exported as a steppable Process with lifecycle
// Hooks: internal/rsm/inject drives the same transition set, one jump at a
// time, against a live replica group, so the live arm and Run draw the same
// numbers from the same stream and differ only in what they observe.
package ituadirect

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"ituaval/internal/core"
	"ituaval/internal/rng"
	"ituaval/internal/stats"
)

// Hooks notifies an observer (the live cluster of internal/rsm) of replica
// lifecycle events as the process evolves. Nil hooks are skipped, and no
// hook consumes randomness, so hooks never change the trajectory. Host
// indices are flattened g = domain*HostsPerDomain + host, replica slots are
// per-application.
type Hooks struct {
	// StartReplica fires when app's slot is (re)placed on host, at
	// construction time and on recovery.
	StartReplica func(app, slot, host int)
	// CorruptReplica fires when an attack corrupts app's slot.
	CorruptReplica func(app, slot int)
	// ConvictReplica fires when the group or the IDS convicts app's slot,
	// possibly before the management response (KillReplica) can run: the
	// model then counts the member as running and non-Byzantine, so the
	// live group masks its Byzantine script until the kill lands.
	ConvictReplica func(app, slot int)
	// KillReplica fires when the management response removes app's slot
	// (conviction response or host exclusion).
	KillReplica func(app, slot int)
	// ExcludeHost fires when host g is excluded from the system.
	ExcludeHost func(host int)
	// Partition fires when the environment severs domains domA and domB
	// (at most one partition is active at a time); the live transport
	// should drop traffic between hosts of the two domains.
	Partition func(domA, domB int)
	// Heal fires when the active partition heals; the live transport
	// should restore all links.
	Heal func()
}

// Process holds the explicit entity state of one replication, advanced one
// exponential jump at a time with Step. Time is in hours.
type Process struct {
	p  core.Params
	rs *rng.Stream // every draw of the replication
	h  Hooks

	hostRate, repRate, mgrRate  float64 // per-entity base attack rates
	hostFalseRate, repFalseRate float64
	pClass                      [3]float64 // script, exploratory, innovative
	detectClass                 [3]float64

	// hosts, flattened g = d*H + h
	hostStatus   []int // 0 ok, 1..3 corrupt by class
	hostExcluded []bool
	hostDetected []bool // host-OS IDS trial consumed
	propDomDone  []bool
	propSysDone  []bool
	mgrCorrupt   []bool // corrupt and undetected
	mgrRemoved   []bool
	mgrDetected  []bool

	domExcluded []bool
	spreadDom   []int // intra-domain propagation events per domain

	spreadSys  int
	intrusions int

	// replica slots [a][r]
	onHost       [][]int // -1 = empty, else flattened host index
	repCorrupt   [][]bool
	repConvicted [][]bool
	repDetected  [][]bool

	running []int
	undet   []int
	grpFail []bool
	needRec []int

	exclEvents      int
	exclCorruptFrac float64 // sum of per-exclusion corrupt fractions

	// Environment faults (mirroring core's Environment submodel). partA
	// and partB are the severed domains of the single active partition
	// (-1 = healed); inService[a] is true while a repair-crew member
	// serves app a's recovery, and crewBusy counts claimed members
	// (crewBusy = Σ inService, crewBusy <= Params.RepairCrew).
	partA, partB int
	inService    []bool
	crewBusy     int

	buf   []transition // enabled transitions of the current state
	total float64      // their summed rate

	// Scratch of initial placement, weighted placement and campaign,
	// reused across events and resets; a Process is driven by one
	// goroutine at a time, so nothing here is shared.
	perm    []int
	hosts   []int
	weights []float64
}

// Result collects one replication's measures for the measured application
// (app 0) and the system.
type Result struct {
	// UnavailTime[i] is the improper-service time of app 0 accumulated in
	// [0, horizons[i]].
	UnavailTime []float64
	// ByzantineBy[i] reports whether app 0 suffered a Byzantine fault by
	// horizons[i].
	ByzantineBy []bool
	// FracDomainsExcluded[i] at horizons[i].
	FracDomainsExcluded []float64
	// CorruptFracAtExclusion is the mean over exclusion events in the full
	// run (NaN if none).
	CorruptFracAtExclusion float64
	// RunningAtEnd is the number of app-0 replicas running at the last
	// horizon.
	RunningAtEnd int
}

// Run simulates one replication up to the largest horizon, recording the
// measures at each horizon. Horizons must be non-empty, finite, positive
// and ascending (repeats allowed).
func Run(p core.Params, seed *rng.Stream, horizons []float64) (Result, error) {
	return RunContext(context.Background(), p, seed, horizons)
}

// RunContext is Run with cooperative cancellation and panic isolation: the
// SSA event loop polls ctx every few hundred events, so cancelling ctx (or
// attaching a deadline to it) aborts a runaway replication with ctx.Err()
// instead of hanging the sweep, and a panic inside the process is returned
// as an error carrying the stack.
func RunContext(ctx context.Context, p core.Params, seed *rng.Stream, horizons []float64) (Result, error) {
	if err := checkHorizons(horizons); err != nil {
		return Result{}, err
	}
	s, err := newProcess(p, Hooks{})
	if err != nil {
		return Result{}, err
	}
	return s.replicate(ctx, seed, horizons)
}

// replicate resets s onto stream rs and runs one replication to the last
// horizon, returning a panic inside the process as an error carrying the
// stack.
func (s *Process) replicate(ctx context.Context, rs *rng.Stream, horizons []float64) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = Result{}, fmt.Errorf("ituadirect: panic: %v\n%s", r, debug.Stack())
		}
	}()
	s.reset(rs)
	return s.run(ctx, horizons)
}

// checkHorizons rejects a horizon list run cannot record: empty, holding a
// non-finite or non-positive entry, or descending anywhere.
func checkHorizons(horizons []float64) error {
	if len(horizons) == 0 {
		return fmt.Errorf("ituadirect: no horizons")
	}
	for i, h := range horizons {
		if math.IsNaN(h) || math.IsInf(h, 0) || h <= 0 {
			return fmt.Errorf("ituadirect: horizon %v must be finite and > 0", h)
		}
		if i > 0 && h < horizons[i-1] {
			return fmt.Errorf("ituadirect: horizons must ascend, got %v after %v", h, horizons[i-1])
		}
	}
	return nil
}

// Estimate accumulates the measures of many replications at one horizon
// T, named like the live arm's (rsm.Result).
type Estimate struct {
	// Unavail is app 0's improper-service fraction of [0, T], Unrel is 1
	// when app 0 suffered a Byzantine fault by T (else 0), and FracExcl is
	// the fraction of domains excluded at T.
	Unavail, Unrel, FracExcl stats.Accumulator
}

// Replicate runs reps replications of p to horizon T on workers goroutines
// (0 = GOMAXPROCS), replication rep on stream rng.New(seed).Derive(rep),
// and accumulates their measures in replication order once every worker is
// done, so the estimate is a function of (p, seed, reps, T) alone, whatever
// the worker count. A failed replication stops the run: no higher index is
// handed out, the ones in flight finish, and the error returned is that of
// the lowest-index replication that failed, as a serial loop would report.
// A context cancelled before every replication was handed out fails the
// first one not handed out with ctx.Err(). Each worker builds one Process
// at its first replication and resets it in place for the next ones.
func Replicate(ctx context.Context, p core.Params, seed uint64, reps int, T float64, workers int) (*Estimate, error) {
	type out struct {
		unavail, unrel, fracExcl float64
	}
	outs := make([]out, max(reps, 0))
	root := rng.New(seed)
	horizon := []float64{T}
	err := forEachRep(ctx, reps, workers, func() func(rep int) error {
		var s *Process
		return func(rep int) error {
			if s == nil {
				if err := checkHorizons(horizon); err != nil {
					return err
				}
				var err error
				if s, err = newProcess(p, Hooks{}); err != nil {
					return err
				}
			}
			r, err := s.replicate(ctx, root.Derive(uint64(rep)), horizon)
			if err != nil {
				return err
			}
			o := out{unavail: r.UnavailTime[0] / T, fracExcl: r.FracDomainsExcluded[0]}
			if r.ByzantineBy[0] {
				o.unrel = 1
			}
			outs[rep] = o
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	var e Estimate
	for _, o := range outs {
		e.Unavail.Add(o.unavail)
		e.Unrel.Add(o.unrel)
		e.FracExcl.Add(o.fracExcl)
	}
	return &e, nil
}

// forEachRep calls run(rep) for rep = 0..n-1 on workers goroutines
// (0 = GOMAXPROCS), each calling the run newRun returned to it, handing
// the indices out in ascending order. After the first failure it hands
// out no higher index but lets the calls in flight finish, so every index
// below a failed one has run to completion and the lowest failed index is
// the one a serial loop would have stopped at; its error is returned,
// wrapped with the index. A cancelled ctx counts as a failure of the first
// index not yet handed out.
func forEachRep(ctx context.Context, n, workers int, newRun func() func(rep int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		mu      sync.Mutex
		failRep = n // lowest failed index so far
		failErr error
		failed  atomic.Bool
	)
	fail := func(rep int, err error) {
		mu.Lock()
		if rep < failRep {
			failRep, failErr = rep, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := newRun()
			for rep := range next {
				if err := run(rep); err != nil {
					fail(rep, err)
				}
			}
		}()
	}
	for rep := 0; rep < n && !failed.Load(); rep++ {
		if err := ctx.Err(); err != nil {
			fail(rep, err)
			break
		}
		next <- rep
	}
	close(next)
	wg.Wait()
	if failErr != nil {
		return fmt.Errorf("ituadirect: replication %d: %w", failRep, failErr)
	}
	return nil
}

// New builds the process in its initial state (replicas placed, no
// corruption) and fires StartReplica for every initial placement.
func New(p core.Params, rs *rng.Stream, h Hooks) (*Process, error) {
	s, err := newProcess(p, h)
	if err != nil {
		return nil, err
	}
	s.reset(rs)
	return s, nil
}

// newProcess validates p and allocates the entity state of p's topology;
// reset puts it in a replication's initial state.
func newProcess(p core.Params, h Hooks) (*Process, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("ituadirect: %w", err)
	}
	D, H, A, R := p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp
	n := D * H
	s := &Process{
		p: p, h: h,
		hostStatus:   make([]int, n),
		hostExcluded: make([]bool, n),
		hostDetected: make([]bool, n),
		propDomDone:  make([]bool, n),
		propSysDone:  make([]bool, n),
		mgrCorrupt:   make([]bool, n),
		mgrRemoved:   make([]bool, n),
		mgrDetected:  make([]bool, n),
		domExcluded:  make([]bool, D),
		spreadDom:    make([]int, D),
		running:      make([]int, A),
		undet:        make([]int, A),
		grpFail:      make([]bool, A),
		needRec:      make([]int, A),
		inService:    make([]bool, A),
		onHost:       make([][]int, A),
		repCorrupt:   make([][]bool, A),
		repConvicted: make([][]bool, A),
		repDetected:  make([][]bool, A),
		perm:         make([]int, D),
	}
	for a := 0; a < A; a++ {
		s.onHost[a] = make([]int, R)
		s.repCorrupt[a] = make([]bool, R)
		s.repConvicted[a] = make([]bool, R)
		s.repDetected[a] = make([]bool, R)
	}
	// Per-entity rates: recompute the same division core.Params performs,
	// but independently (from the documented semantics, not shared code
	// beyond the parameter struct).
	wSum := p.AttackSplitHost + p.AttackSplitReplica + p.AttackSplitMgr
	hosts := float64(n)
	if p.RateBaseHosts > 0 {
		hosts = float64(p.RateBaseHosts)
	}
	initialReps := p.RepsPerApp
	if p.NumDomains < initialReps {
		initialReps = p.NumDomains
	}
	replicas := float64(p.NumApps * initialReps)
	if p.RateBaseReplicas > 0 {
		replicas = float64(p.RateBaseReplicas)
	}
	s.hostRate = p.TotalAttackRate * p.AttackSplitHost / wSum / hosts
	s.repRate = p.TotalAttackRate * p.AttackSplitReplica / wSum / replicas
	s.mgrRate = p.TotalAttackRate * p.AttackSplitMgr / wSum / hosts
	fSum := p.FalseSplitHost + p.FalseSplitReplica
	s.hostFalseRate = p.TotalFalseAlarmRate * p.FalseSplitHost / fSum / hosts
	s.repFalseRate = p.TotalFalseAlarmRate * p.FalseSplitReplica / fSum / replicas
	s.pClass = [3]float64{p.PScript, p.PExploratory, p.PInnovative}
	s.detectClass = [3]float64{p.DetectScript, p.DetectExploratory, p.DetectInnovative}
	return s, nil
}

// reset returns s to a replication's initial state on stream rs, in place:
// every entity healthy and unexcluded, then min(R, D) replicas per app
// placed on distinct uniformly chosen domains, uniform host within each,
// firing StartReplica for each. It makes the same draws in the same order
// whatever s ran before, so a reset Process follows the trajectory of a new
// one on the same stream.
func (s *Process) reset(rs *rng.Stream) {
	s.rs = rs
	clear(s.hostStatus)
	clear(s.hostExcluded)
	clear(s.hostDetected)
	clear(s.propDomDone)
	clear(s.propSysDone)
	clear(s.mgrCorrupt)
	clear(s.mgrRemoved)
	clear(s.mgrDetected)
	clear(s.domExcluded)
	clear(s.spreadDom)
	s.spreadSys, s.intrusions = 0, 0
	clear(s.running)
	clear(s.undet)
	clear(s.grpFail)
	clear(s.needRec)
	s.exclEvents, s.exclCorruptFrac = 0, 0
	s.partA, s.partB = -1, -1
	clear(s.inService)
	s.crewBusy = 0

	// Every slot is emptied before any is placed: least-loaded and
	// weighted placement count the replicas of every app on a host.
	for a := range s.onHost {
		for r := range s.onHost[a] {
			s.onHost[a][r] = -1
		}
		clear(s.repCorrupt[a])
		clear(s.repConvicted[a])
		clear(s.repDetected[a])
	}
	k := min(s.p.RepsPerApp, s.p.NumDomains)
	for a := range s.onHost {
		rs.Perm(s.perm)
		for i := 0; i < k; i++ {
			g := s.chooseHost(s.perm[i])
			s.onHost[a][i] = g
			s.running[a]++
			if s.h.StartReplica != nil {
				s.h.StartReplica(a, i, g)
			}
		}
	}
}

func (s *Process) domainOf(g int) int { return g / s.p.HostsPerDomain }

// hostLoad counts the replicas currently running on host g.
func (s *Process) hostLoad(g int) int {
	n := 0
	for a := range s.onHost {
		for _, h := range s.onHost[a] {
			if h == g {
				n++
			}
		}
	}
	return n
}

// chooseHost picks a live host of domain d per the placement strategy,
// mirroring core's semantics. The live hosts are walked in index order
// rather than collected, so a placement allocates nothing.
func (s *Process) chooseHost(d int) int {
	H := s.p.HostsPerDomain
	lo, hi := d*H, (d+1)*H
	switch s.p.Placement {
	case core.LeastLoadedPlacement:
		best := -1
		for g := lo; g < hi; g++ {
			if !s.hostExcluded[g] && (best < 0 || s.hostLoad(g) < s.hostLoad(best)) {
				best = g
			}
		}
		return best
	case core.WeightedRandomPlacement:
		s.hosts, s.weights = s.hosts[:0], s.weights[:0]
		for g := lo; g < hi; g++ {
			if !s.hostExcluded[g] {
				s.hosts = append(s.hosts, g)
				s.weights = append(s.weights, 1/(1+float64(s.hostLoad(g))))
			}
		}
		return s.hosts[s.rs.Category(s.weights)]
	default:
		n := 0
		for g := lo; g < hi; g++ {
			if !s.hostExcluded[g] {
				n++
			}
		}
		g := lo - 1
		for k := s.rs.Choose(n); k >= 0; k-- {
			for g++; s.hostExcluded[g]; g++ {
			}
		}
		return g
	}
}

// hasReplica reports whether app a has a running replica in domain d.
func (s *Process) hasReplica(a, d int) bool {
	for _, g := range s.onHost[a] {
		if g >= 0 && s.domainOf(g) == d {
			return true
		}
	}
	return false
}

func (s *Process) mgrsRunning() int {
	n := 0
	for g := range s.mgrRemoved {
		if !s.hostExcluded[g] {
			n++
		}
	}
	return n
}

func (s *Process) undetMgrs() int {
	n := 0
	for g := range s.mgrCorrupt {
		if s.mgrCorrupt[g] && !s.hostExcluded[g] {
			n++
		}
	}
	return n
}

func (s *Process) globalQuorumOK() bool {
	// An active partition blocks the system-wide management quorum (the
	// same conservative reading as core: no global majority view while
	// any two domains cannot talk).
	if s.partA >= 0 {
		return false
	}
	return 3*s.undetMgrs() < s.mgrsRunning()
}

// cutsDomain reports whether domain d is on either side of the active
// partition.
func (s *Process) cutsDomain(d int) bool {
	return s.partA >= 0 && (d == s.partA || d == s.partB)
}

func (s *Process) domainGroupOK(d int) bool {
	H := s.p.HostsPerDomain
	up, corrupt := 0, 0
	for h := 0; h < H; h++ {
		g := d*H + h
		if !s.hostExcluded[g] {
			up++
			if s.mgrCorrupt[g] {
				corrupt++
			}
		}
	}
	return 3*corrupt < up
}

// Improper is the model's unavailability predicate for app a in the current
// state: at least one third of the running replicas corrupt undetected
// (vacuously true with zero replicas running), or the active partition
// isolating the whole replica group (PartitionIsolated).
func (s *Process) Improper(a int) bool {
	return 3*s.undet[a] >= s.running[a] || s.PartitionIsolated(a)
}

// PartitionIsolated reports whether the whole replica group of app a
// straddles the active partition: every running replica is in one of the
// severed domains with at least one on each side, so no relay path exists
// and neither side holds a response majority (mirrors core.Model.Improper).
func (s *Process) PartitionIsolated(a int) bool {
	if s.partA < 0 {
		return false
	}
	sawA, sawB := false, false
	for _, g := range s.onHost[a] {
		if g < 0 {
			continue
		}
		switch s.domainOf(g) {
		case s.partA:
			sawA = true
		case s.partB:
			sawB = true
		default:
			return false
		}
	}
	return sawA && sawB
}

// Running returns the number of placed replicas of app a (the model's
// replicas_running, which still counts convicted-pending members).
func (s *Process) Running(a int) int { return s.running[a] }

// Undet returns the number of corrupt undetected replicas of app a.
func (s *Process) Undet(a int) int { return s.undet[a] }

// Byzantine reports whether app a has latched the model's Byzantine-failure
// flag (undetected corrupt replicas reached one third while nonzero).
func (s *Process) Byzantine(a int) bool { return s.grpFail[a] }

// Replica returns the state of app a's slot r: its flattened host (-1 when
// empty), whether it is corrupt, and whether it is convicted with the
// management response still pending.
func (s *Process) Replica(a, r int) (host int, corrupt, convicted bool) {
	return s.onHost[a][r], s.repCorrupt[a][r], s.repConvicted[a][r]
}

// Partitioned returns the severed domain pair of the active partition, or
// ok = false while the network is healed.
func (s *Process) Partitioned() (domA, domB int, ok bool) {
	if s.partA < 0 {
		return 0, 0, false
	}
	return s.partA, s.partB, true
}

// CrewBusy returns the number of claimed repair-crew members (always zero
// with Params.RepairCrew == 0, i.e. unbounded repair capacity).
func (s *Process) CrewBusy() int { return s.crewBusy }

func (s *Process) checkByzantine(a int) {
	if s.undet[a] > 0 && 3*s.undet[a] >= s.running[a] {
		s.grpFail[a] = true
	}
}

// spreadBoost is the linear rate increase on host-OS attacks in domain d.
func (s *Process) spreadBoost(d int) float64 {
	return s.p.SpreadRateCoeff * (s.p.DomainSpreadRate*float64(s.spreadDom[d]) +
		s.p.SystemSpreadRate*float64(s.spreadSys))
}

// assetBoost is the linear rate increase on replica/manager attacks from
// intra-domain spread.
func (s *Process) assetBoost(d int) float64 {
	return s.p.AssetSpreadCoeff * s.p.DomainSpreadRate * float64(s.spreadDom[d])
}
