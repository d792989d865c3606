package core

import (
	"fmt"

	"ituaval/internal/san"
)

// Model is the composed ITUA SAN together with the place handles the
// measures and tests need. Host g below is the flattened host index
// g = domain*HostsPerDomain + hostInDomain; places that encode a host in a
// marking store g+1 so that 0 means "none".
type Model struct {
	Params Params
	SAN    *san.Model

	// Global places.
	SpreadSys       *san.Place // attack_spread_system
	Intrusions      *san.Place // successful attacks so far (quenches false alarms)
	UndetMgrs       *san.Place // undetected_corr_mgrs (system-wide)
	MgrsRunning     *san.Place // currently active managers (system-wide)
	DomainsExcluded *san.Place // number of excluded domains
	LastExclCorrupt *san.Place // corrupt hosts in the most recently excluded domain
	LastExclTotal   *san.Place // hosts in the most recently excluded domain

	// Per-domain places (index d).
	SpreadDom      []*san.Place // attack_spread_domain
	DomExcluded    []*san.Place // exclude flag
	DomMgrsUp      []*san.Place // active managers in the domain
	DomMgrsCorrupt []*san.Place // undetected corrupt managers in the domain
	ExclPending    []*san.Place // domain conviction awaiting shut_domain

	// Per-host places (flattened index g). The one-shot detection/spread
	// flags and the pending-exclusion places exist only in configurations
	// whose rates make the corresponding activities possible (see the
	// structural gates in Build); a slice is nil when its places cannot be
	// used, so a silently-dead place never exists to begin with.
	HostStatus      []*san.Place // 0 ok; 1 script; 2 exploratory; 3 innovative
	HostExcluded    []*san.Place
	HostDetectDone  []*san.Place // host-OS IDS trial consumed
	MgrStatus       []*san.Place // 0 ok; 1 corrupt undetected; 2 removed
	MgrDetectDone   []*san.Place
	PropDomDone     []*san.Place // intra-domain spread fired
	PropSysDone     []*san.Place // system-wide spread fired
	NumReplicas     []*san.Place // replicas running on the host
	HostExclPending []*san.Place // host conviction awaiting shut_host

	// Per-application places (index a).
	Running      []*san.Place // replicas_running
	Undet        []*san.Place // rep_corr_undetected
	GrpFail      []*san.Place // rep_grp_failure latch
	NeedRecovery []*san.Place

	// HasReplica[a][d] is 1 while application a has a replica in domain d.
	HasReplica [][]*san.Place

	// Environment-fault places (nil unless the corresponding fault rates
	// are positive; see the structural gates in Build). PartitionA/B hold
	// the severed domain + 1 while a partition is active (0 = healed).
	// RepairBusy + RepairIdle = Params.RepairCrew is the crew conservation
	// law, and RepairInService[a] is 1 while a crew member is serving
	// application a's recovery (RepairBusy = Σa RepairInService[a]).
	PartitionA      *san.Place
	PartitionB      *san.Place
	RepairBusy      *san.Place
	RepairIdle      *san.Place
	RepairInService []*san.Place

	// Per-replica-slot places ([a][r]); the slot count is min(RepsPerApp,
	// NumDomains), the most replicas an app can run at once under the
	// one-per-domain placement law.
	OnHost        [][]*san.Place // 0 = slot empty, else flattened host + 1
	RepCorrupt    [][]*san.Place
	RepConvicted  [][]*san.Place
	RepDetectDone [][]*san.Place

	// shutActivity[name] is true for the exclusion activities, which the
	// fraction-of-corrupt-hosts impulse measure matches on.
	shutActivity map[string]bool
}

// Build constructs and finalizes the composed ITUA model for p.
func Build(p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid params: %w", err)
	}
	D, H, A, R := p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp
	nHosts := D * H
	rt := p.derive()

	// ---- structural gates ------------------------------------------------
	// An activity whose rate parameters make it impossible is not created at
	// all, and the one-shot bookkeeping places only it can use are not
	// created either. A gated-out activity previously existed with a
	// constant-false predicate and never consumed randomness, so omitting it
	// leaves every trajectory bit-identical while letting the static linter
	// (san.Model.Lint) hold the remaining net to full liveness standards.
	canAttackHost := rt.hostAttack > 0
	canAttackMgr := rt.mgrAttack > 0
	canAttackRep := rt.replicaAttack > 0
	// Correlated campaigns are a second way hosts become corrupt, so every
	// gate that used to ask "can a host attack succeed" asks "can a host
	// become corrupt" instead; with the campaign rates zero the two are the
	// same predicate and the net is structurally unchanged.
	canCampaign := p.CampaignRate > 0 && p.CampaignSize > 0 && p.CampaignProb > 0
	canCorruptHost := canAttackHost || canCampaign
	// Domain spread raises the attack rates on the domain's hosts, managers
	// and replicas; it is observable only if at least one of those attack
	// processes exists. System spread raises host attack rates only.
	canSpreadDom := p.DomainSpreadRate > 0 && canCorruptHost &&
		(canAttackHost || canAttackMgr || canAttackRep)
	canSpreadSys := p.SystemSpreadRate > 0 && canAttackHost
	canDetectHost := p.HostDetectRate > 0 && canCorruptHost
	canDetectMgr := p.MgrDetectRate > 0 && canAttackMgr
	canDetectRep := p.ReplicaDetectRate > 0 && canAttackRep
	// Misbehaviour conviction requires a group with strictly less than a
	// third of its running replicas corrupt while at least one is: with
	// min(R, D) <= 3 running replicas, a single corruption already meets
	// the one-third threshold, so the predicate can never hold.
	canMisbehave := p.MisbehaveRate > 0 && canAttackRep && min(R, D) > 3
	// A replica can be convicted by detection, misbehaviour, or a false alarm.
	canConvict := canDetectRep || canMisbehave || rt.replicaFalse > 0
	// An exclusion can originate from host/manager detection, a host-level
	// false alarm, or (under the alternative response) a replica conviction.
	canExclude := canDetectHost || canDetectMgr || rt.hostFalse > 0 ||
		(canConvict && p.ExcludeOnReplicaConviction)
	// Replicas die through slot convictions, host exclusions, or domain
	// exclusions; recovery needs a kill source plus a qualifying target
	// domain. A whole-domain exclusion can never free a usable domain, so
	// when every domain starts with a replica (min(R, D) == D) the
	// domain-exclusion policy alone cannot make recovery fire; the same
	// holds for host exclusion at one host per domain.
	canRecover := (canConvict && !p.ExcludeOnReplicaConviction) ||
		(p.Policy == HostExclusion && canExclude && (H > 1 || min(R, D) < D)) ||
		(p.Policy == DomainExclusion && canExclude && min(R, D) < D)
	// Environment faults: partitions need a pair of domains to sever, and
	// a repair crew only matters if recovery can fire at all.
	canPartition := p.PartitionRate > 0 && p.PartitionHealRate > 0 && D > 1
	canCrew := p.RepairCrew > 0 && canRecover
	// An app holds at most min(R, D) replicas at once (one per domain), and
	// recovery always reuses the lowest free slot, so slots beyond that
	// count can never be occupied — they are not created.
	nSlots := min(R, D)

	m := &Model{
		Params:       p,
		SAN:          san.NewModel(fmt.Sprintf("itua-%s-%dx%d-%dx%d", p.Policy, D, H, A, R)),
		shutActivity: make(map[string]bool),
	}
	s := m.SAN

	// ---- places ------------------------------------------------------
	if canAttackHost {
		// Only host attacks read the system-wide spread marking, and only
		// their propagation writes it.
		m.SpreadSys = s.Place("attack_spread_system", 0)
	}
	m.Intrusions = s.Place("intrusions", 0)
	// recordIntrusion latches the first successful attack. The measures
	// and guards only ever test intrusions == 0, so the place saturates at
	// 1: that keeps the state space finite for the numerical solver, and
	// a later intrusion writes nothing, so the simulator does not
	// re-evaluate the false alarms' guards, which stay false.
	recordIntrusion := func(st *san.State) {
		if st.Get(m.Intrusions) == 0 {
			st.Add(m.Intrusions, 1)
		}
	}
	m.UndetMgrs = s.Place("undetected_corr_mgrs", 0)
	m.MgrsRunning = s.Place("mgrs_running", san.Marking(nHosts))
	m.DomainsExcluded = s.Place("domains_excluded", 0)
	m.LastExclCorrupt = s.Place("last_excl_corrupt", 0)
	m.LastExclTotal = s.Place("last_excl_total", 0)

	perDomain := func(name string, init san.Marking) []*san.Place {
		ps := make([]*san.Place, D)
		for d := 0; d < D; d++ {
			ps[d] = s.Place(fmt.Sprintf("domain[%d].%s", d, name), init)
		}
		return ps
	}
	m.SpreadDom = perDomain("attack_spread_domain", 0)
	m.DomExcluded = perDomain("excluded", 0)
	m.DomMgrsUp = perDomain("mgrs_up", san.Marking(H))
	m.DomMgrsCorrupt = perDomain("mgrs_corrupt", 0)
	if p.Policy == DomainExclusion && canExclude {
		m.ExclPending = perDomain("exclude_pending", 0)
	}

	perHost := func(name string) []*san.Place {
		ps := make([]*san.Place, nHosts)
		for g := 0; g < nHosts; g++ {
			ps[g] = s.Place(fmt.Sprintf("domain[%d].host[%d].%s", g/H, g%H, name), 0)
		}
		return ps
	}
	m.HostStatus = perHost("status")
	m.HostExcluded = perHost("excluded")
	if canDetectHost {
		m.HostDetectDone = perHost("detect_done")
	}
	m.MgrStatus = perHost("mgr_status")
	if canDetectMgr {
		m.MgrDetectDone = perHost("mgr_detect_done")
	}
	if canSpreadDom {
		m.PropDomDone = perHost("prop_domain_done")
	}
	if canSpreadSys {
		m.PropSysDone = perHost("prop_sys_done")
	}
	m.NumReplicas = perHost("num_replicas")
	if p.Policy == HostExclusion && canExclude {
		m.HostExclPending = perHost("exclude_pending")
	}

	perApp := func(name string) []*san.Place {
		ps := make([]*san.Place, A)
		for a := 0; a < A; a++ {
			ps[a] = s.Place(fmt.Sprintf("app[%d].%s", a, name), 0)
		}
		return ps
	}
	m.Running = perApp("replicas_running")
	m.Undet = perApp("rep_corr_undetected")
	m.GrpFail = perApp("rep_grp_failure")
	m.NeedRecovery = perApp("need_recovery")

	m.HasReplica = make([][]*san.Place, A)
	m.OnHost = make([][]*san.Place, A)
	m.RepCorrupt = make([][]*san.Place, A)
	m.RepConvicted = make([][]*san.Place, A)
	if canDetectRep {
		m.RepDetectDone = make([][]*san.Place, A)
	}
	for a := 0; a < A; a++ {
		m.HasReplica[a] = make([]*san.Place, D)
		for d := 0; d < D; d++ {
			m.HasReplica[a][d] = s.Place(fmt.Sprintf("app[%d].has_replica[%d]", a, d), 0)
		}
		m.OnHost[a] = make([]*san.Place, nSlots)
		m.RepCorrupt[a] = make([]*san.Place, nSlots)
		m.RepConvicted[a] = make([]*san.Place, nSlots)
		if canDetectRep {
			m.RepDetectDone[a] = make([]*san.Place, nSlots)
		}
		for r := 0; r < nSlots; r++ {
			m.OnHost[a][r] = s.Place(fmt.Sprintf("app[%d].rep[%d].on_host", a, r), 0)
			m.RepCorrupt[a][r] = s.Place(fmt.Sprintf("app[%d].rep[%d].corrupt", a, r), 0)
			m.RepConvicted[a][r] = s.Place(fmt.Sprintf("app[%d].rep[%d].convicted", a, r), 0)
			if canDetectRep {
				m.RepDetectDone[a][r] = s.Place(fmt.Sprintf("app[%d].rep[%d].detect_done", a, r), 0)
			}
		}
	}

	if canPartition {
		m.PartitionA = s.Place("env.partition_a", 0)
		m.PartitionB = s.Place("env.partition_b", 0)
	}
	if canCrew {
		m.RepairBusy = s.Place("env.repair_busy", 0)
		m.RepairIdle = s.Place("env.repair_idle", san.Marking(p.RepairCrew))
		m.RepairInService = perApp("repair_in_service")
	}

	// ---- shared predicates and effect helpers -------------------------

	// Manager quorum conditions: "less than a third of the currently
	// active group members are corrupt" (Section 2). An active network
	// partition blocks the system-wide quorum entirely (a conservative
	// reading: the global management group cannot certify a majority view
	// while any two domains cannot talk); domain-local groups are
	// unaffected because a partition severs only inter-domain links.
	globalQuorumOK := func(st *san.State) bool {
		if m.PartitionA != nil && st.Get(m.PartitionA) != 0 {
			return false
		}
		return 3*st.Int(m.UndetMgrs) < st.Int(m.MgrsRunning)
	}
	// cutsDomain reports whether domain d sits on either side of the
	// currently active partition.
	cutsDomain := func(st *san.State, d int) bool {
		if m.PartitionA == nil {
			return false
		}
		pa := st.Int(m.PartitionA)
		return pa != 0 && (pa == d+1 || st.Int(m.PartitionB) == d+1)
	}
	domainGroupOK := func(st *san.State, d int) bool {
		return 3*st.Int(m.DomMgrsCorrupt[d]) < st.Int(m.DomMgrsUp[d])
	}

	// checkByzantine latches rep_grp_failure when a third or more of the
	// currently running replicas of app a are corrupt but undetected — a
	// Byzantine fault of the replication group (Section 3.2). Exhaustion
	// (running == 0 with no corruptions) is improper *service* and counts
	// toward unavailability, but is not a Byzantine fault and does not
	// latch, matching the paper's rep_grp_failure semantics.
	checkByzantine := func(st *san.State, a int) {
		undet := st.Int(m.Undet[a])
		if undet > 0 && 3*undet >= st.Int(m.Running[a]) {
			st.Set(m.GrpFail[a], 1)
		}
	}

	// killReplicasOnHost kills every replica running on host g: the paper's
	// kill_replica behaviour (decrement replicas_running, reset the slot's
	// local places for reuse, raise need_recovery).
	killReplicasOnHost := func(st *san.State, g int) {
		d := g / H
		for a := 0; a < A; a++ {
			touched := false
			for r := 0; r < nSlots; r++ {
				if st.Int(m.OnHost[a][r]) != g+1 {
					continue
				}
				st.Set(m.OnHost[a][r], 0)
				// A replica contributes to rep_corr_undetected exactly
				// while corrupt and not yet convicted.
				if st.Get(m.RepCorrupt[a][r]) == 1 && st.Get(m.RepConvicted[a][r]) == 0 {
					st.Add(m.Undet[a], -1)
				}
				st.Set(m.RepCorrupt[a][r], 0)
				st.Set(m.RepConvicted[a][r], 0)
				if m.RepDetectDone != nil {
					st.Set(m.RepDetectDone[a][r], 0)
				}
				st.Add(m.Running[a], -1)
				st.Set(m.HasReplica[a][d], 0)
				st.Add(m.NeedRecovery[a], 1)
				touched = true
			}
			if touched {
				checkByzantine(st, a)
			}
		}
		st.Set(m.NumReplicas[g], 0)
	}

	// killReplicaSlot kills a single convicted replica (slot a, r running on
	// host g), freeing the slot for a restart elsewhere.
	killReplicaSlot := func(st *san.State, a, r, g int) {
		st.Set(m.OnHost[a][r], 0)
		if st.Get(m.RepCorrupt[a][r]) == 1 && st.Get(m.RepConvicted[a][r]) == 0 {
			st.Add(m.Undet[a], -1)
		}
		st.Set(m.RepCorrupt[a][r], 0)
		st.Set(m.RepConvicted[a][r], 0)
		if m.RepDetectDone != nil {
			st.Set(m.RepDetectDone[a][r], 0)
		}
		st.Add(m.Running[a], -1)
		st.Set(m.HasReplica[a][g/H], 0)
		st.Add(m.NeedRecovery[a], 1)
		st.Add(m.NumReplicas[g], -1)
		checkByzantine(st, a)
	}

	// excludeHost removes host g and everything on it.
	excludeHost := func(st *san.State, g int) {
		if st.Get(m.HostExcluded[g]) == 1 {
			return
		}
		d := g / H
		st.Set(m.HostExcluded[g], 1)
		if st.Get(m.MgrStatus[g]) == 1 {
			st.Add(m.UndetMgrs, -1)
			st.Add(m.DomMgrsCorrupt[d], -1)
		}
		st.Set(m.MgrStatus[g], 2)
		st.Add(m.MgrsRunning, -1)
		st.Add(m.DomMgrsUp[d], -1)
		killReplicasOnHost(st, g)
	}

	// excludeDomain records the resource-waste statistics and removes every
	// host of domain d.
	excludeDomain := func(st *san.State, d int) {
		if st.Get(m.DomExcluded[d]) == 1 {
			return
		}
		// A host counts as corrupt if any component on it is corrupt: the
		// host OS/services, its manager, or a replica it runs. False-alarm
		// exclusions are the only way a domain is excluded with no corrupt
		// host, which is the paper's explanation for Fig 3(c) being below
		// one at one host per domain.
		corrupt := 0
		for h := 0; h < H; h++ {
			g := d*H + h
			isCorrupt := st.Get(m.HostStatus[g]) > 0 || st.Get(m.MgrStatus[g]) == 1
			if !isCorrupt {
			slots:
				for a := 0; a < A; a++ {
					for r := 0; r < nSlots; r++ {
						if st.Int(m.OnHost[a][r]) == g+1 && st.Get(m.RepCorrupt[a][r]) == 1 {
							isCorrupt = true
							break slots
						}
					}
				}
			}
			if isCorrupt {
				corrupt++
			}
		}
		st.Set(m.LastExclCorrupt, san.Marking(corrupt))
		st.Set(m.LastExclTotal, san.Marking(H))
		for h := 0; h < H; h++ {
			excludeHost(st, d*H+h)
		}
		st.Set(m.DomExcluded[d], 1)
		st.Add(m.DomainsExcluded, 1)
	}

	// requestExclusion routes a successful detection response to the
	// configured management algorithm: convict the whole domain (default)
	// or only the offending host (alternative algorithm, Section 3.4).
	requestExclusion := func(st *san.State, g int) {
		d := g / H
		switch p.Policy {
		case DomainExclusion:
			if st.Get(m.DomExcluded[d]) == 0 {
				st.Set(m.ExclPending[d], 1)
			}
		case HostExclusion:
			if st.Get(m.HostExcluded[g]) == 0 {
				st.Set(m.HostExclPending[g], 1)
			}
		}
	}

	// chooseHost picks a live host of domain d for a new replica according
	// to the configured placement strategy. Uniform and least-loaded
	// placement walk the domain's hosts instead of collecting the live
	// ones, so no domain size makes them allocate; the uniform walk to the
	// k-th live host is the same draw, and under enumeration the same
	// branches, as indexing a list of them.
	chooseHost := func(ctx *san.Context, d int) int {
		st := ctx.State
		live := func(g int) bool { return st.Get(m.HostExcluded[g]) == 0 }
		switch p.Placement {
		case LeastLoadedPlacement:
			best := -1
			for g := d * H; g < (d+1)*H; g++ {
				if live(g) && (best < 0 || st.Get(m.NumReplicas[g]) < st.Get(m.NumReplicas[best])) {
					best = g
				}
			}
			return best
		case WeightedRandomPlacement:
			var upBuf [8]int
			var wBuf [8]float64
			hostsUp, weights := upBuf[:0], wBuf[:0]
			for g := d * H; g < (d+1)*H; g++ {
				if live(g) {
					hostsUp = append(hostsUp, g)
					weights = append(weights, 1/(1+float64(st.Get(m.NumReplicas[g]))))
				}
			}
			return hostsUp[ctx.ChooseWeighted(weights)]
		default:
			n := 0
			for g := d * H; g < (d+1)*H; g++ {
				if live(g) {
					n++
				}
			}
			g := d*H - 1
			for k := ctx.Choose(n); k >= 0; k-- {
				for g++; !live(g); g++ {
				}
			}
			return g
		}
	}

	// ---- initialization ------------------------------------------------
	// The middleware starts min(RepsPerApp, NumDomains) replicas per
	// application (one replica per application per domain), on a uniformly
	// chosen host of each chosen domain. The paper does this with
	// high-rate assign_id/start_replica activities; the hook is the direct
	// expression of the same random placement.
	s.SetInit(func(ctx *san.Context) {
		st := ctx.State
		k := R
		if D < k {
			k = D
		}
		// Stack buffer: under the analytic resolver this hook runs once
		// per enumerated placement branch. Only domPerm[:k] is read, so
		// Permute enumerates only the ordered k-prefixes: (D!/(D-k)!)^A
		// branches before host choices, not D!^A.
		var permBuf [16]int
		domPerm := append(permBuf[:0], make([]int, D)...)
		for a := 0; a < A; a++ {
			ctx.Permute(domPerm, k)
			for i := 0; i < k; i++ {
				d := domPerm[i]
				g := chooseHost(ctx, d)
				st.Set(m.OnHost[a][i], san.Marking(g+1))
				st.Set(m.HasReplica[a][d], 1)
				st.Add(m.NumReplicas[g], 1)
				st.Add(m.Running[a], 1)
			}
		}
	})

	// ---- host activities ------------------------------------------------
	for g := 0; g < nHosts; g++ {
		g := g
		d := g / H
		hostScope := fmt.Sprintf("domain[%d].host[%d]", d, g%H)

		// attack_host: three cases for the three attack classes; the rate
		// grows linearly with the domain and system spread markings.
		if canAttackHost {
			s.AddActivity(san.ActivityDef{
				Name: hostScope + ".attack_host",
				Kind: san.Timed,
				Rate: func(st *san.State) float64 {
					// One spread variable per level governs both how fast the
					// attack propagates and how much more vulnerable the
					// exposed hosts become (Section 3.4).
					boost := p.DomainSpreadRate*float64(st.Get(m.SpreadDom[d])) +
						p.SystemSpreadRate*float64(st.Get(m.SpreadSys))
					return rt.hostAttack * (1 + p.SpreadRateCoeff*boost)
				},
				Enabled: func(st *san.State) bool {
					return st.Get(m.HostExcluded[g]) == 0 && st.Get(m.HostStatus[g]) == 0
				},
				Reads: []*san.Place{m.HostExcluded[g], m.HostStatus[g], m.SpreadDom[d], m.SpreadSys},
				Cases: []san.Case{
					{Name: "script", Prob: p.PScript, Effect: func(ctx *san.Context) {
						ctx.State.Set(m.HostStatus[g], 1)
						recordIntrusion(ctx.State)
					}},
					{Name: "exploratory", Prob: p.PExploratory, Effect: func(ctx *san.Context) {
						ctx.State.Set(m.HostStatus[g], 2)
						recordIntrusion(ctx.State)
					}},
					{Name: "innovative", Prob: p.PInnovative, Effect: func(ctx *san.Context) {
						ctx.State.Set(m.HostStatus[g], 3)
						recordIntrusion(ctx.State)
					}},
				},
			})
		}

		// propagate_domain / propagate_sys: fire exactly once per corrupt
		// host, increasing the spread markings.
		if canSpreadDom {
			s.AddActivity(san.ActivityDef{
				Name: hostScope + ".propagate_domain",
				Kind: san.Timed,
				Rate: func(*san.State) float64 { return p.DomainSpreadRate },
				Enabled: func(st *san.State) bool {
					return st.Get(m.HostStatus[g]) > 0 &&
						st.Get(m.HostExcluded[g]) == 0 && st.Get(m.PropDomDone[g]) == 0
				},
				Reads: []*san.Place{m.HostStatus[g], m.HostExcluded[g], m.PropDomDone[g]},
				Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
					ctx.State.Add(m.SpreadDom[d], 1)
					ctx.State.Set(m.PropDomDone[g], 1)
				}}},
			})
		}
		if canSpreadSys {
			// A partition stops system-wide spread from originating in a
			// severed domain: the attacker cannot reach across the cut.
			sysReads := []*san.Place{m.HostStatus[g], m.HostExcluded[g], m.PropSysDone[g]}
			if canPartition {
				sysReads = append(sysReads, m.PartitionA, m.PartitionB)
			}
			s.AddActivity(san.ActivityDef{
				Name: hostScope + ".propagate_sys",
				Kind: san.Timed,
				Rate: func(*san.State) float64 { return p.SystemSpreadRate },
				Enabled: func(st *san.State) bool {
					return st.Get(m.HostStatus[g]) > 0 &&
						st.Get(m.HostExcluded[g]) == 0 && st.Get(m.PropSysDone[g]) == 0 &&
						!cutsDomain(st, d)
				},
				Reads: sysReads,
				Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
					ctx.State.Add(m.SpreadSys, 1)
					ctx.State.Set(m.PropSysDone[g], 1)
				}}},
			})
		}

		// attack_mgmt: attacks on the manager; faster on a corrupt host and
		// in a domain the attack has spread through.
		if canAttackMgr {
			s.AddActivity(san.ActivityDef{
				Name: hostScope + ".attack_mgmt",
				Kind: san.Timed,
				Rate: func(st *san.State) float64 {
					rate := rt.mgrAttack
					if st.Get(m.HostStatus[g]) > 0 {
						rate *= p.CorruptionMult
					}
					boost := p.DomainSpreadRate * float64(st.Get(m.SpreadDom[d]))
					return rate * (1 + p.AssetSpreadCoeff*boost)
				},
				Enabled: func(st *san.State) bool {
					return st.Get(m.HostExcluded[g]) == 0 && st.Get(m.MgrStatus[g]) == 0
				},
				Reads: []*san.Place{m.HostExcluded[g], m.MgrStatus[g], m.HostStatus[g], m.SpreadDom[d]},
				Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
					ctx.State.Set(m.MgrStatus[g], 1)
					ctx.State.Add(m.UndetMgrs, 1)
					ctx.State.Add(m.DomMgrsCorrupt[d], 1)
					recordIntrusion(ctx.State)
				}}},
			})
		}

		// valid_ID_{scp,exp,inv}: one detection trial per host corruption;
		// on success the response runs provided the local manager and the
		// domain's manager group are not corrupt (Section 3.4).
		if canDetectHost {
			for class, detectProb := range []float64{1: p.DetectScript, 2: p.DetectExploratory, 3: p.DetectInnovative} {
				if class == 0 {
					continue
				}
				class, detectProb := class, detectProb
				suffix := [...]string{1: "scp", 2: "exp", 3: "inv"}[class]
				s.AddActivity(san.ActivityDef{
					Name: fmt.Sprintf("%s.valid_ID_%s", hostScope, suffix),
					Kind: san.Timed,
					Rate: func(*san.State) float64 { return p.HostDetectRate },
					Enabled: func(st *san.State) bool {
						return st.Int(m.HostStatus[g]) == class &&
							st.Get(m.HostExcluded[g]) == 0 && st.Get(m.HostDetectDone[g]) == 0
					},
					Reads: []*san.Place{m.HostStatus[g], m.HostExcluded[g], m.HostDetectDone[g]},
					Cases: []san.Case{
						{Name: "detect", Prob: detectProb, Effect: func(ctx *san.Context) {
							ctx.State.Set(m.HostDetectDone[g], 1)
							if ctx.State.Get(m.MgrStatus[g]) == 0 && domainGroupOK(ctx.State, d) {
								requestExclusion(ctx.State, g)
							}
						}},
						{Name: "miss", Prob: 1 - detectProb, Effect: func(ctx *san.Context) {
							ctx.State.Set(m.HostDetectDone[g], 1)
						}},
					},
				})
			}
		}

		// valid_ID_mgr: detection of manager infiltration. The manager
		// group convicts its own members, so the response needs either a
		// correct domain manager group or a good system-wide quorum.
		if canDetectMgr {
			s.AddActivity(san.ActivityDef{
				Name: hostScope + ".valid_ID_mgr",
				Kind: san.Timed,
				Rate: func(*san.State) float64 { return p.MgrDetectRate },
				Enabled: func(st *san.State) bool {
					return st.Get(m.MgrStatus[g]) == 1 &&
						st.Get(m.HostExcluded[g]) == 0 && st.Get(m.MgrDetectDone[g]) == 0
				},
				Reads: []*san.Place{m.MgrStatus[g], m.HostExcluded[g], m.MgrDetectDone[g]},
				Cases: []san.Case{
					{Name: "detect", Prob: p.DetectMgr, Effect: func(ctx *san.Context) {
						ctx.State.Set(m.MgrDetectDone[g], 1)
						if domainGroupOK(ctx.State, d) || globalQuorumOK(ctx.State) {
							requestExclusion(ctx.State, g)
						}
					}},
					{Name: "miss", Prob: 1 - p.DetectMgr, Effect: func(ctx *san.Context) {
						ctx.State.Set(m.MgrDetectDone[g], 1)
					}},
				},
			})
		}

		// false_ID: false alarms of host-OS or manager infiltration,
		// "enabled as long as there have not been any actual intrusions"
		// (Section 3.4) — the alarms quench once a real attack has
		// succeeded anywhere; the response is the same as for a valid
		// detection.
		if rt.hostFalse > 0 {
			s.AddActivity(san.ActivityDef{
				Name: hostScope + ".false_ID",
				Kind: san.Timed,
				Rate: func(*san.State) float64 { return rt.hostFalse },
				Enabled: func(st *san.State) bool {
					return st.Get(m.HostExcluded[g]) == 0 && st.Get(m.Intrusions) == 0
				},
				Reads: []*san.Place{m.HostExcluded[g], m.Intrusions},
				Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
					if ctx.State.Get(m.MgrStatus[g]) == 0 && domainGroupOK(ctx.State, d) {
						requestExclusion(ctx.State, g)
					}
				}}},
			})
		}

		// shut_host (host-exclusion algorithm only): carries out a pending
		// host conviction.
		if p.Policy == HostExclusion && canExclude {
			act := s.AddActivity(san.ActivityDef{
				Name:     hostScope + ".shut_host",
				Kind:     san.Instant,
				Priority: 10,
				Enabled: func(st *san.State) bool {
					return st.Get(m.HostExclPending[g]) == 1 && st.Get(m.HostExcluded[g]) == 0
				},
				Reads: []*san.Place{m.HostExclPending[g], m.HostExcluded[g]},
				Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
					ctx.State.Set(m.HostExclPending[g], 0)
					excludeHost(ctx.State, g)
				}}},
			})
			m.shutActivity[act.Name()] = true
		}
	}

	// ---- domain activities ----------------------------------------------
	if p.Policy == DomainExclusion && canExclude {
		for d := 0; d < D; d++ {
			d := d
			act := s.AddActivity(san.ActivityDef{
				Name:     fmt.Sprintf("domain[%d].shut_domain", d),
				Kind:     san.Instant,
				Priority: 10,
				Enabled: func(st *san.State) bool {
					return st.Get(m.ExclPending[d]) == 1 && st.Get(m.DomExcluded[d]) == 0
				},
				Reads: []*san.Place{m.ExclPending[d], m.DomExcluded[d]},
				Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
					ctx.State.Set(m.ExclPending[d], 0)
					excludeDomain(ctx.State, d)
				}}},
			})
			m.shutActivity[act.Name()] = true
		}
	}

	// ---- environment activities ------------------------------------------
	// The Environment submodel injects correlated adversity: one partition
	// at a time severing a uniformly chosen domain pair, and attack
	// campaigns corrupting a Binomial(CampaignSize, CampaignProb) batch of
	// hosts in a single firing. Both are gated out structurally when their
	// rates are zero, so the paper's baseline net is unchanged.
	if canPartition {
		nPairs := D * (D - 1) / 2
		s.AddActivity(san.ActivityDef{
			Name:    "env.partition",
			Kind:    san.Timed,
			Rate:    func(*san.State) float64 { return p.PartitionRate },
			Enabled: func(st *san.State) bool { return st.Get(m.PartitionA) == 0 },
			Reads:   []*san.Place{m.PartitionA},
			Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
				// Uniform over the D*(D-1)/2 unordered domain pairs,
				// enumerated (0,1), (0,2), ..., (D-2,D-1). Excluded domains
				// are legitimate targets too: the network does not know the
				// management algorithm's exclusion state.
				k := ctx.Choose(nPairs)
				da := 0
				for k >= D-1-da {
					k -= D - 1 - da
					da++
				}
				db := da + 1 + k
				ctx.State.Set(m.PartitionA, san.Marking(da+1))
				ctx.State.Set(m.PartitionB, san.Marking(db+1))
			}}},
		})
		s.AddActivity(san.ActivityDef{
			Name:    "env.partition_heal",
			Kind:    san.Timed,
			Rate:    func(*san.State) float64 { return p.PartitionHealRate },
			Enabled: func(st *san.State) bool { return st.Get(m.PartitionA) != 0 },
			Reads:   []*san.Place{m.PartitionA},
			Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
				ctx.State.Set(m.PartitionA, 0)
				ctx.State.Set(m.PartitionB, 0)
			}}},
		})
	}
	if canCampaign {
		campaignReads := append([]*san.Place(nil), m.HostStatus...)
		campaignReads = append(campaignReads, m.HostExcluded...)
		bern := []float64{p.CampaignProb, 1 - p.CampaignProb}
		classes := []float64{p.PScript, p.PExploratory, p.PInnovative}
		s.AddActivity(san.ActivityDef{
			Name: "env.campaign",
			Kind: san.Timed,
			Rate: func(*san.State) float64 { return p.CampaignRate },
			Enabled: func(st *san.State) bool {
				for g := 0; g < nHosts; g++ {
					if st.Get(m.HostStatus[g]) == 0 && st.Get(m.HostExcluded[g]) == 0 {
						return true
					}
				}
				return false
			},
			Reads: campaignReads,
			Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
				st := ctx.State
				// A stack buffer: the model is shared by every worker's
				// engine, so the effect holds no scratch of its own. 64
				// hosts cover every registered grid; append moves a
				// larger system to the heap.
				var eligibleBuf [64]int
				eligible := eligibleBuf[:0]
				for g := 0; g < nHosts; g++ {
					if st.Get(m.HostStatus[g]) == 0 && st.Get(m.HostExcluded[g]) == 0 {
						eligible = append(eligible, g)
					}
				}
				k := p.CampaignSize
				if len(eligible) <= k {
					k = len(eligible)
				} else {
					// Partial Fisher–Yates: the first k entries become a
					// uniform k-subset of the eligible hosts.
					for i := 0; i < k; i++ {
						j := i + ctx.Choose(len(eligible)-i)
						eligible[i], eligible[j] = eligible[j], eligible[i]
					}
				}
				for _, g := range eligible[:k] {
					if ctx.ChooseWeighted(bern) != 0 {
						continue
					}
					class := 1 + ctx.ChooseWeighted(classes)
					st.Set(m.HostStatus[g], san.Marking(class))
					recordIntrusion(st)
				}
			}}},
		})
	}

	// ---- replica activities ----------------------------------------------
	// Conservative dependency sets for activities whose host is dynamic.
	allHostStatus := append([]*san.Place(nil), m.HostStatus...)
	quorumReads := []*san.Place{m.UndetMgrs, m.MgrsRunning}
	quorumReads = append(quorumReads, m.DomMgrsCorrupt...)
	quorumReads = append(quorumReads, m.DomMgrsUp...)
	if canPartition {
		quorumReads = append(quorumReads, m.PartitionA)
	}

	for a := 0; a < A; a++ {
		a := a
		for r := 0; r < nSlots; r++ {
			r := r
			repScope := fmt.Sprintf("app[%d].rep[%d]", a, r)
			onHost, corrupt := m.OnHost[a][r], m.RepCorrupt[a][r]
			convicted := m.RepConvicted[a][r]

			// attack_rep: the rate is multiplied by CorruptionMult when the
			// host the replica runs on is corrupted, and grows with the
			// attack spread recorded in the replica's domain (the attacker
			// who has spread through a domain attacks everything in it).
			if canAttackRep {
				reads := []*san.Place{onHost, corrupt, convicted}
				reads = append(reads, allHostStatus...)
				reads = append(reads, m.SpreadDom...)
				s.AddActivity(san.ActivityDef{
					Name: repScope + ".attack_rep",
					Kind: san.Timed,
					Rate: func(st *san.State) float64 {
						rate := rt.replicaAttack
						if g := st.Int(onHost) - 1; g >= 0 {
							if st.Get(m.HostStatus[g]) > 0 {
								rate *= p.CorruptionMult
							}
							boost := p.DomainSpreadRate * float64(st.Get(m.SpreadDom[g/H]))
							rate *= 1 + p.AssetSpreadCoeff*boost
						}
						return rate
					},
					Enabled: func(st *san.State) bool {
						return st.Get(onHost) > 0 &&
							st.Get(corrupt) == 0 && st.Get(convicted) == 0
					},
					Reads: reads,
					Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
						ctx.State.Set(corrupt, 1)
						ctx.State.Add(m.Undet[a], 1)
						recordIntrusion(ctx.State)
						checkByzantine(ctx.State, a)
					}}},
				})
			}

			// valid_ID: one intrusion-detection trial per replica
			// corruption (probability DetectReplica of conviction).
			if canDetectRep {
				detectDone := m.RepDetectDone[a][r]
				s.AddActivity(san.ActivityDef{
					Name: repScope + ".valid_ID",
					Kind: san.Timed,
					Rate: func(*san.State) float64 { return p.ReplicaDetectRate },
					Enabled: func(st *san.State) bool {
						return st.Get(corrupt) == 1 &&
							st.Get(convicted) == 0 && st.Get(detectDone) == 0
					},
					Reads: []*san.Place{corrupt, convicted, detectDone},
					Cases: []san.Case{
						{Name: "detect", Prob: p.DetectReplica, Effect: func(ctx *san.Context) {
							ctx.State.Set(detectDone, 1)
							ctx.State.Set(convicted, 1)
							ctx.State.Add(m.Undet[a], -1)
						}},
						{Name: "miss", Prob: 1 - p.DetectReplica, Effect: func(ctx *san.Context) {
							ctx.State.Set(detectDone, 1)
						}},
					},
				})
			}

			// rep_misbehave: a corrupt replica shows anomalous behaviour
			// and is always convicted by the group, provided less than a
			// third of the currently running replicas are corrupt.
			if canMisbehave {
				s.AddActivity(san.ActivityDef{
					Name: repScope + ".rep_misbehave",
					Kind: san.Timed,
					Rate: func(*san.State) float64 { return p.MisbehaveRate },
					Enabled: func(st *san.State) bool {
						return st.Get(corrupt) == 1 && st.Get(convicted) == 0 &&
							st.Int(m.Running[a]) > 3*st.Int(m.Undet[a])
					},
					Reads: []*san.Place{corrupt, convicted, m.Running[a], m.Undet[a]},
					Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
						ctx.State.Set(convicted, 1)
						ctx.State.Add(m.Undet[a], -1)
					}}},
				})
			}

			// false_ID: a false alarm convicts an innocent running replica;
			// like the host-level alarms it is enabled only while no real
			// intrusion has happened.
			if rt.replicaFalse > 0 {
				s.AddActivity(san.ActivityDef{
					Name: repScope + ".false_ID",
					Kind: san.Timed,
					Rate: func(*san.State) float64 { return rt.replicaFalse },
					Enabled: func(st *san.State) bool {
						return st.Get(onHost) > 0 &&
							st.Get(corrupt) == 0 && st.Get(convicted) == 0 &&
							st.Get(m.Intrusions) == 0
					},
					Reads: []*san.Place{onHost, corrupt, convicted, m.Intrusions},
					Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
						ctx.State.Set(convicted, 1)
					}}},
				})
			}

			// respond: the managers act on a convicted replica once either
			// the domain's manager group is correct or the system-wide
			// manager group has a good quorum, requesting the configured
			// exclusion.
			if canConvict {
				respondReads := []*san.Place{convicted, onHost}
				respondReads = append(respondReads, quorumReads...)
				s.AddActivity(san.ActivityDef{
					Name:     repScope + ".respond",
					Kind:     san.Instant,
					Priority: 5,
					Enabled: func(st *san.State) bool {
						g := st.Int(onHost) - 1
						if st.Get(convicted) != 1 || g < 0 {
							return false
						}
						return domainGroupOK(st, g/H) || globalQuorumOK(st)
					},
					Reads: respondReads,
					Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
						g := ctx.State.Int(onHost) - 1
						if p.ExcludeOnReplicaConviction {
							requestExclusion(ctx.State, g)
							return
						}
						killReplicaSlot(ctx.State, a, r, g)
					}}},
				})
			}
		}

		// recovery: the management algorithm starts one replacement
		// replica on a uniformly chosen qualifying domain and a uniformly
		// chosen non-excluded host within it (Sections 2 and 3.3).
		if !canRecover {
			continue
		}
		recoveryReads := []*san.Place{m.NeedRecovery[a], m.UndetMgrs, m.MgrsRunning}
		recoveryReads = append(recoveryReads, m.DomExcluded...)
		recoveryReads = append(recoveryReads, m.HasReplica[a]...)
		recoveryReads = append(recoveryReads, m.HostExcluded...)
		if canPartition {
			recoveryReads = append(recoveryReads, m.PartitionA)
		}
		qualifying := func(st *san.State, d int) bool {
			if st.Get(m.DomExcluded[d]) == 1 || st.Get(m.HasReplica[a][d]) == 1 {
				return false
			}
			for h := 0; h < H; h++ {
				if st.Get(m.HostExcluded[d*H+h]) == 0 {
					return true
				}
			}
			return false
		}
		anyQualifying := func(st *san.State) bool {
			for d := 0; d < D; d++ {
				if qualifying(st, d) {
					return true
				}
			}
			return false
		}
		doRecovery := func(ctx *san.Context) {
			st := ctx.State
			n := 0
			for d := 0; d < D; d++ {
				if qualifying(st, d) {
					n++
				}
			}
			// Walk to the k-th qualifying domain: the same draw, and under
			// enumeration the same branches, as indexing a list of them.
			d := -1
			for k := ctx.Choose(n); k >= 0; k-- {
				for d++; !qualifying(st, d); d++ {
				}
			}
			g := chooseHost(ctx, d)
			slot := -1
			for r := 0; r < nSlots; r++ {
				if st.Get(m.OnHost[a][r]) == 0 {
					slot = r
					break
				}
			}
			if slot < 0 {
				panic("core: recovery with no free replica slot")
			}
			st.Set(m.OnHost[a][slot], san.Marking(g+1))
			st.Set(m.HasReplica[a][d], 1)
			st.Add(m.NumReplicas[g], 1)
			st.Add(m.Running[a], 1)
			st.Add(m.NeedRecovery[a], -1)
		}
		if canCrew {
			// Bounded repair capacity: a recovery first claims an idle crew
			// member (instantaneous while one is free, below respond's
			// priority so convictions settle first) and holds it for the
			// whole exponential service. At most one crew member serves an
			// application at a time, matching the unbounded model's
			// serialized per-app recovery.
			inService := m.RepairInService[a]
			s.AddActivity(san.ActivityDef{
				Name:     fmt.Sprintf("app[%d].repair_start", a),
				Kind:     san.Instant,
				Priority: 3,
				Enabled: func(st *san.State) bool {
					return st.Get(m.NeedRecovery[a]) > 0 && st.Get(inService) == 0 &&
						st.Get(m.RepairIdle) > 0 && globalQuorumOK(st) && anyQualifying(st)
				},
				Reads: append([]*san.Place{inService, m.RepairIdle}, recoveryReads...),
				Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
					ctx.State.Set(inService, 1)
					ctx.State.Add(m.RepairIdle, -1)
					ctx.State.Add(m.RepairBusy, 1)
				}}},
			})
			s.AddActivity(san.ActivityDef{
				Name: fmt.Sprintf("app[%d].recovery", a),
				Kind: san.Timed,
				Rate: func(*san.State) float64 { return p.RecoveryRate },
				Enabled: func(st *san.State) bool {
					// The crew member stays claimed if every qualifying
					// domain disappears mid-service; the timer resumes when
					// one reappears.
					return st.Get(inService) == 1 && globalQuorumOK(st) && anyQualifying(st)
				},
				Reads: append([]*san.Place{inService}, recoveryReads...),
				Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
					doRecovery(ctx)
					ctx.State.Set(inService, 0)
					ctx.State.Add(m.RepairIdle, 1)
					ctx.State.Add(m.RepairBusy, -1)
				}}},
			})
		} else {
			s.AddActivity(san.ActivityDef{
				Name: fmt.Sprintf("app[%d].recovery", a),
				Kind: san.Timed,
				Rate: func(*san.State) float64 { return p.RecoveryRate },
				Enabled: func(st *san.State) bool {
					return st.Get(m.NeedRecovery[a]) > 0 && globalQuorumOK(st) && anyQualifying(st)
				},
				Reads: recoveryReads,
				Cases: []san.Case{{Prob: 1, Effect: doRecovery}},
			})
		}
	}

	// ---- measure visibility and declared bounds --------------------------
	// Places whose only readers are the reward measures (internal/core's
	// measures.go) are declared Observed so the static linter does not flag
	// them as write-only; declared bounds give both the linter and the
	// runtime invariant monitors the legal marking range of each place.
	s.Observe(m.DomainsExcluded, m.LastExclCorrupt, m.LastExclTotal, m.Intrusions)
	s.Observe(m.HostStatus...)
	s.Observe(m.HostExcluded...)
	s.Observe(m.NumReplicas...)
	s.Observe(m.Running...)
	s.Observe(m.Undet...)
	s.Observe(m.GrpFail...)
	// The placement and recovery bookkeeping is read by the runtime
	// invariant monitors (internal/integrity) even in configurations where
	// no activity reads it (e.g. recovery gated out).
	s.Observe(m.NeedRecovery...)
	for a := 0; a < A; a++ {
		s.Observe(m.HasReplica[a]...)
	}
	// The partition places feed the Improper measure and the environment
	// invariant monitors; the crew places feed the conservation invariant.
	if canPartition {
		s.Observe(m.PartitionA, m.PartitionB)
	}
	if canCrew {
		s.Observe(m.RepairBusy, m.RepairIdle)
		s.Observe(m.RepairInService...)
	}

	boundEach := func(ps []*san.Place, max san.Marking) {
		for _, pl := range ps {
			if pl != nil {
				s.Bound(pl, max)
			}
		}
	}
	k := R
	if D < k {
		k = D // replicas per app: one per distinct domain
	}
	// Intrusions latches at 1 (see recordIntrusion), in every mode.
	s.Bound(m.Intrusions, 1)
	if m.SpreadSys != nil {
		s.Bound(m.SpreadSys, san.Marking(nHosts))
	}
	s.Bound(m.UndetMgrs, san.Marking(nHosts))
	s.Bound(m.MgrsRunning, san.Marking(nHosts))
	s.Bound(m.DomainsExcluded, san.Marking(D))
	s.Bound(m.LastExclCorrupt, san.Marking(H))
	s.Bound(m.LastExclTotal, san.Marking(H))
	boundEach(m.SpreadDom, san.Marking(H))
	boundEach(m.DomExcluded, 1)
	boundEach(m.DomMgrsUp, san.Marking(H))
	boundEach(m.DomMgrsCorrupt, san.Marking(H))
	boundEach(m.ExclPending, 1)
	boundEach(m.HostStatus, 3)
	boundEach(m.HostExcluded, 1)
	boundEach(m.HostDetectDone, 1)
	boundEach(m.MgrStatus, 2)
	boundEach(m.MgrDetectDone, 1)
	boundEach(m.PropDomDone, 1)
	boundEach(m.PropSysDone, 1)
	boundEach(m.NumReplicas, san.Marking(A)) // one replica per app per host
	boundEach(m.HostExclPending, 1)
	boundEach(m.Running, san.Marking(k))
	boundEach(m.Undet, san.Marking(k))
	boundEach(m.GrpFail, 1)
	boundEach(m.NeedRecovery, san.Marking(k))
	if canPartition {
		s.Bound(m.PartitionA, san.Marking(D))
		s.Bound(m.PartitionB, san.Marking(D))
	}
	if canCrew {
		s.Bound(m.RepairBusy, san.Marking(p.RepairCrew))
		s.Bound(m.RepairIdle, san.Marking(p.RepairCrew))
		boundEach(m.RepairInService, 1)
	}
	for a := 0; a < A; a++ {
		boundEach(m.HasReplica[a], 1)
		boundEach(m.OnHost[a], san.Marking(nHosts)) // stores flattened host + 1
		boundEach(m.RepCorrupt[a], 1)
		boundEach(m.RepConvicted[a], 1)
		if m.RepDetectDone != nil {
			boundEach(m.RepDetectDone[a], 1)
		}
	}

	if err := s.Finalize(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return m, nil
}
