package ituadirect

import (
	"context"
	"math"

	"ituaval/internal/core"
)

// kind names one clause of the transition set.
type kind uint8

const (
	partitionStart kind = iota
	partitionHeal
	campaignHit
	hostAttack
	domainSpread
	systemSpread
	mgrAttack
	hostDetect
	mgrDetect
	hostFalseAlarm
	replicaAttack
	replicaDetect
	replicaConvict // group conviction or replica false alarm
	crewRecovery
	recovery
)

// transition is one enabled exponential event: a clause of the transition
// set bound to the host g and/or replica slot (a, r) it acts on. Recording
// the clause instead of a closure keeps collect allocation-free.
type transition struct {
	rate    float64
	kind    kind
	g, a, r int
}

// collect enumerates every enabled transition in the current state.
func (s *Process) collect(buf []transition) []transition {
	buf = buf[:0]
	p := s.p

	// Environment faults: a single partition severing a uniformly chosen
	// domain pair, and correlated attack campaigns corrupting a
	// Binomial(CampaignSize, CampaignProb) batch of eligible hosts.
	if p.PartitionRate > 0 && p.PartitionHealRate > 0 && len(s.domExcluded) > 1 {
		if s.partA < 0 {
			buf = append(buf, transition{rate: p.PartitionRate, kind: partitionStart})
		} else {
			buf = append(buf, transition{rate: p.PartitionHealRate, kind: partitionHeal})
		}
	}
	if p.CampaignRate > 0 && p.CampaignSize > 0 && p.CampaignProb > 0 {
		for g := range s.hostStatus {
			if s.hostStatus[g] == 0 && !s.hostExcluded[g] {
				buf = append(buf, transition{rate: p.CampaignRate, kind: campaignHit})
				break
			}
		}
	}

	for g := range s.hostStatus {
		if s.hostExcluded[g] {
			continue
		}
		d := s.domainOf(g)

		// Host-OS attack (three classes resolved at application time).
		if s.hostStatus[g] == 0 && s.hostRate > 0 {
			rate := s.hostRate * (1 + s.spreadBoost(d))
			buf = append(buf, transition{rate: rate, kind: hostAttack, g: g})
		}

		// Spread propagation, once per corrupt host.
		if s.hostStatus[g] > 0 && !s.propDomDone[g] && p.DomainSpreadRate > 0 {
			buf = append(buf, transition{rate: p.DomainSpreadRate, kind: domainSpread, g: g})
		}
		if s.hostStatus[g] > 0 && !s.propSysDone[g] && p.SystemSpreadRate > 0 &&
			!s.cutsDomain(d) {
			buf = append(buf, transition{rate: p.SystemSpreadRate, kind: systemSpread, g: g})
		}

		// Manager attack.
		if !s.mgrCorrupt[g] && !s.mgrRemoved[g] && s.mgrRate > 0 {
			rate := s.mgrRate * (1 + s.assetBoost(d))
			if s.hostStatus[g] > 0 {
				rate *= p.CorruptionMult
			}
			buf = append(buf, transition{rate: rate, kind: mgrAttack, g: g})
		}

		// Host-OS detection trial (one-shot per corruption).
		if s.hostStatus[g] > 0 && !s.hostDetected[g] && p.HostDetectRate > 0 {
			buf = append(buf, transition{rate: p.HostDetectRate, kind: hostDetect, g: g})
		}

		// Manager detection trial.
		if s.mgrCorrupt[g] && !s.mgrDetected[g] && p.MgrDetectRate > 0 {
			buf = append(buf, transition{rate: p.MgrDetectRate, kind: mgrDetect, g: g})
		}

		// Host-level false alarm, quenched after the first real intrusion.
		if s.intrusions == 0 && s.hostFalseRate > 0 {
			buf = append(buf, transition{rate: s.hostFalseRate, kind: hostFalseAlarm, g: g})
		}
	}

	for a := range s.onHost {
		for r, g := range s.onHost[a] {
			if g < 0 {
				continue
			}
			d := s.domainOf(g)

			// Replica attack.
			if !s.repCorrupt[a][r] && !s.repConvicted[a][r] && s.repRate > 0 {
				rate := s.repRate * (1 + s.assetBoost(d))
				if s.hostStatus[g] > 0 {
					rate *= p.CorruptionMult
				}
				buf = append(buf, transition{rate: rate, kind: replicaAttack, a: a, r: r})
			}

			// Replica IDS detection trial.
			if s.repCorrupt[a][r] && !s.repConvicted[a][r] && !s.repDetected[a][r] && p.ReplicaDetectRate > 0 {
				buf = append(buf, transition{rate: p.ReplicaDetectRate, kind: replicaDetect, a: a, r: r})
			}

			// Group conviction of a misbehaving corrupt replica, enabled
			// only while the group has a correct two-thirds quorum.
			if s.repCorrupt[a][r] && !s.repConvicted[a][r] && p.MisbehaveRate > 0 &&
				s.running[a] > 3*s.undet[a] {
				buf = append(buf, transition{rate: p.MisbehaveRate, kind: replicaConvict, a: a, r: r})
			}

			// Replica false alarm, quenched after the first intrusion.
			if s.intrusions == 0 && !s.repCorrupt[a][r] && !s.repConvicted[a][r] && s.repFalseRate > 0 {
				buf = append(buf, transition{rate: s.repFalseRate, kind: replicaConvict, a: a, r: r})
			}
		}

		// Recovery of one killed replica. With a bounded repair crew the
		// exponential service runs only while a crew member is claimed for
		// this app (claims happen instantaneously in drainCrew); unbounded
		// otherwise.
		if p.RepairCrew > 0 {
			if s.inService[a] && s.globalQuorumOK() && s.qualifyingDomainExists(a) {
				buf = append(buf, transition{rate: p.RecoveryRate, kind: crewRecovery, a: a})
			}
		} else if s.needRec[a] > 0 && s.globalQuorumOK() && s.qualifyingDomainExists(a) {
			buf = append(buf, transition{rate: p.RecoveryRate, kind: recovery, a: a})
		}
	}
	return buf
}

// apply performs one transition's state update.
func (s *Process) apply(tr transition) {
	g, a, r := tr.g, tr.a, tr.r
	d := s.domainOf(g)
	switch tr.kind {
	case partitionStart:
		D := len(s.domExcluded)
		k := s.rs.Choose(D * (D - 1) / 2)
		da := 0
		for k >= D-1-da {
			k -= D - 1 - da
			da++
		}
		s.partA, s.partB = da, da+1+k
		if s.h.Partition != nil {
			s.h.Partition(s.partA, s.partB)
		}
	case partitionHeal:
		s.partA, s.partB = -1, -1
		if s.h.Heal != nil {
			s.h.Heal()
		}
	case campaignHit:
		s.campaign()
	case hostAttack:
		s.hostStatus[g] = 1 + s.rs.Category(s.pClass[:])
		s.intrusions++
	case domainSpread:
		s.propDomDone[g] = true
		s.spreadDom[d]++
	case systemSpread:
		s.propSysDone[g] = true
		s.spreadSys++
	case mgrAttack:
		s.mgrCorrupt[g] = true
		s.intrusions++
	case hostDetect:
		s.hostDetected[g] = true
		class := s.hostStatus[g] - 1
		if s.rs.Bernoulli(s.detectClass[class]) &&
			!s.mgrCorrupt[g] && s.domainGroupOK(d) {
			s.exclude(g)
		}
	case mgrDetect:
		s.mgrDetected[g] = true
		if s.rs.Bernoulli(s.p.DetectMgr) &&
			(s.domainGroupOK(d) || s.globalQuorumOK()) {
			s.exclude(g)
		}
	case hostFalseAlarm:
		if !s.mgrCorrupt[g] && s.domainGroupOK(d) {
			s.exclude(g)
		}
	case replicaAttack:
		s.repCorrupt[a][r] = true
		s.undet[a]++
		s.intrusions++
		s.checkByzantine(a)
		if s.h.CorruptReplica != nil {
			s.h.CorruptReplica(a, r)
		}
	case replicaDetect:
		s.repDetected[a][r] = true
		if s.rs.Bernoulli(s.p.DetectReplica) {
			s.convict(a, r)
		}
	case replicaConvict:
		s.convict(a, r)
	case crewRecovery:
		s.recover(a)
		s.inService[a] = false
		s.crewBusy--
	case recovery:
		s.recover(a)
	}
}

// Step samples the next exponential jump. If it lands within maxDt, the
// transition is applied (the state visible through the accessors and hooks
// is then the post-jump state) and Step returns the sojourn time with
// fired = true. If the jump lands beyond maxDt — or the process is absorbed
// with nothing enabled — no transition is applied and Step returns
// (maxDt, false): the state is unchanged through maxDt, and state beyond
// the horizon is never touched.
func (s *Process) Step(maxDt float64) (dt float64, fired bool) {
	dt, ok := s.sojourn()
	if !ok || dt > maxDt {
		return maxDt, false
	}
	s.jump()
	return dt, true
}

// sojourn enumerates the enabled transitions and draws the time to the next
// jump; ok is false when the process is absorbed with nothing enabled.
func (s *Process) sojourn() (dt float64, ok bool) {
	s.buf = s.collect(s.buf)
	s.total = 0
	for _, tr := range s.buf {
		s.total += tr.rate
	}
	if s.total <= 0 {
		return 0, false
	}
	return s.rs.Expo(s.total), true
}

// jump selects one of the transitions enumerated by the last sojourn with
// probability proportional to its rate, applies it, and then retries the
// responses and repairs it may have unblocked.
func (s *Process) jump() {
	u := s.rs.Float64() * s.total
	acc := 0.0
	idx := len(s.buf) - 1
	for i, tr := range s.buf {
		acc += tr.rate
		if u < acc {
			idx = i
			break
		}
	}
	s.apply(s.buf[idx])
	s.drainPending()
}

// campaign corrupts a Binomial(CampaignSize, CampaignProb) batch of
// uniformly chosen eligible (uncorrupted, unexcluded) hosts in one event,
// mirroring core's env.campaign activity.
func (s *Process) campaign() {
	eligible := s.hosts[:0]
	for g := range s.hostStatus {
		if s.hostStatus[g] == 0 && !s.hostExcluded[g] {
			eligible = append(eligible, g)
		}
	}
	s.hosts = eligible
	k := s.p.CampaignSize
	if len(eligible) <= k {
		k = len(eligible)
	} else {
		// Partial Fisher–Yates: the first k entries become a uniform
		// k-subset of the eligible hosts.
		for i := 0; i < k; i++ {
			j := i + s.rs.Choose(len(eligible)-i)
			eligible[i], eligible[j] = eligible[j], eligible[i]
		}
	}
	for _, g := range eligible[:k] {
		if !s.rs.Bernoulli(s.p.CampaignProb) {
			continue
		}
		s.hostStatus[g] = 1 + s.rs.Category(s.pClass[:])
		s.intrusions++
	}
}

// convict marks the replica convicted and applies the pending response
// immediately if the manager quorum permits; otherwise the response fires
// as soon as a later event makes the quorum condition true (checked in
// drainPending).
func (s *Process) convict(a, r int) {
	if s.repCorrupt[a][r] {
		s.undet[a]--
	}
	s.repConvicted[a][r] = true
	if s.h.ConvictReplica != nil {
		s.h.ConvictReplica(a, r)
	}
	s.respondIfAble(a, r)
}

// respondIfAble performs the management response to a convicted replica.
func (s *Process) respondIfAble(a, r int) {
	g := s.onHost[a][r]
	if g < 0 || !s.repConvicted[a][r] {
		return
	}
	if !s.domainGroupOK(s.domainOf(g)) && !s.globalQuorumOK() {
		return // response pending until quorum recovers
	}
	if s.p.ExcludeOnReplicaConviction {
		s.exclude(g)
		return
	}
	// Restart path: kill only the convicted replica.
	s.killSlot(a, r)
}

// drainPending retries responses for convicted replicas that were blocked
// on manager quorum, then lets the repair crew claim any newly serviceable
// recoveries.
func (s *Process) drainPending() {
	for a := range s.onHost {
		for r := range s.onHost[a] {
			if s.repConvicted[a][r] && s.onHost[a][r] >= 0 {
				s.respondIfAble(a, r)
			}
		}
	}
	s.drainCrew()
}

// drainCrew assigns idle repair-crew members to applications with pending,
// serviceable recoveries, in app order (mirroring core's instantaneous
// repair_start activity). At most one crew member serves an app at a time.
func (s *Process) drainCrew() {
	if s.p.RepairCrew == 0 {
		return
	}
	for a := range s.inService {
		if s.crewBusy >= s.p.RepairCrew {
			return
		}
		if !s.inService[a] && s.needRec[a] > 0 && s.globalQuorumOK() &&
			s.qualifyingDomainExists(a) {
			s.inService[a] = true
			s.crewBusy++
		}
	}
}

// killSlot removes the replica in slot (a, r) and queues a recovery.
func (s *Process) killSlot(a, r int) {
	if s.onHost[a][r] < 0 {
		return
	}
	if s.repCorrupt[a][r] && !s.repConvicted[a][r] {
		s.undet[a]--
	}
	s.onHost[a][r] = -1
	s.repCorrupt[a][r] = false
	s.repConvicted[a][r] = false
	s.repDetected[a][r] = false
	s.running[a]--
	s.needRec[a]++
	s.checkByzantine(a)
	if s.h.KillReplica != nil {
		s.h.KillReplica(a, r)
	}
}

// exclude applies the configured exclusion policy to host g.
func (s *Process) exclude(g int) {
	if s.p.Policy == core.HostExclusion {
		s.exclEvents++
		s.exclCorruptFrac += s.hostCorruptFrac(g, g+1)
		s.excludeHost(g)
		return
	}
	d := s.domainOf(g)
	if s.domExcluded[d] {
		return
	}
	H := s.p.HostsPerDomain
	lo, hi := d*H, (d+1)*H
	s.exclEvents++
	s.exclCorruptFrac += s.hostCorruptFrac(lo, hi)
	for gg := lo; gg < hi; gg++ {
		s.excludeHost(gg)
	}
	s.domExcluded[d] = true
}

// hostCorruptFrac computes the fraction of hosts in [lo, hi) with any
// corrupt component (OS, manager, or a resident replica).
func (s *Process) hostCorruptFrac(lo, hi int) float64 {
	corrupt := 0
	for g := lo; g < hi; g++ {
		bad := s.hostStatus[g] > 0 || (s.mgrCorrupt[g] && !s.hostExcluded[g])
		if !bad {
		slots:
			for a := range s.onHost {
				for r := range s.onHost[a] {
					if s.onHost[a][r] == g && s.repCorrupt[a][r] {
						bad = true
						break slots
					}
				}
			}
		}
		if bad {
			corrupt++
		}
	}
	return float64(corrupt) / float64(hi-lo)
}

func (s *Process) excludeHost(g int) {
	if s.hostExcluded[g] {
		return
	}
	s.hostExcluded[g] = true
	s.mgrCorrupt[g] = false
	s.mgrRemoved[g] = true
	for a := range s.onHost {
		for r := range s.onHost[a] {
			if s.onHost[a][r] == g {
				s.killSlot(a, r)
			}
		}
	}
	if s.h.ExcludeHost != nil {
		s.h.ExcludeHost(g)
	}
}

func (s *Process) qualifyingDomainExists(a int) bool {
	for d := range s.domExcluded {
		if s.domainQualifies(a, d) {
			return true
		}
	}
	return false
}

func (s *Process) domainQualifies(a, d int) bool {
	if s.domExcluded[d] || s.hasReplica(a, d) {
		return false
	}
	H := s.p.HostsPerDomain
	for h := 0; h < H; h++ {
		if !s.hostExcluded[d*H+h] {
			return true
		}
	}
	return false
}

// recover places one replacement replica of app a on a uniformly chosen
// qualifying domain and a uniformly chosen live host within it. It counts
// the qualifying domains and walks to the chosen one instead of listing
// them: the same draw, with nothing allocated.
func (s *Process) recover(a int) {
	n := 0
	for d := range s.domExcluded {
		if s.domainQualifies(a, d) {
			n++
		}
	}
	if n == 0 {
		return
	}
	d := -1
	for k := s.rs.Choose(n); k >= 0; k-- {
		for d++; !s.domainQualifies(a, d); d++ {
		}
	}
	g := s.chooseHost(d)
	for r := range s.onHost[a] {
		if s.onHost[a][r] < 0 {
			s.onHost[a][r] = g
			s.running[a]++
			s.needRec[a]--
			if s.h.StartReplica != nil {
				s.h.StartReplica(a, r, g)
			}
			return
		}
	}
	panic("ituadirect: no free slot during recovery")
}

// run executes the SSA loop up to the last horizon. It polls ctx every 256
// events so cancellation cannot be starved by a high-rate configuration.
// It takes Step apart into sojourn and jump so that the horizon test stays
// on absolute time (now+dt >= last) and the horizons a jump crosses are
// recorded in the pre-jump state.
func (s *Process) run(ctx context.Context, horizons []float64) (Result, error) {
	last := horizons[len(horizons)-1]
	res := Result{
		UnavailTime:         make([]float64, len(horizons)),
		ByzantineBy:         make([]bool, len(horizons)),
		FracDomainsExcluded: make([]float64, len(horizons)),
	}
	now := 0.0
	cum := 0.0 // improper-service time of app 0 accumulated so far
	next := 0  // next horizon index to close out
	events := 0

	// record advances time to upto with the state (hence the improper
	// indicator) constant over (now, upto], snapshotting at any horizons
	// crossed.
	record := func(upto float64, improperNow, byz bool) {
		for next < len(horizons) && horizons[next] <= upto {
			h := horizons[next]
			c := cum
			if improperNow {
				c += h - now
			}
			res.UnavailTime[next] = c
			res.ByzantineBy[next] = byz
			res.FracDomainsExcluded[next] = s.FracDomainsExcluded()
			next++
		}
		if improperNow {
			cum += upto - now
		}
		now = upto
	}

	for {
		if events++; events&255 == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		dt, ok := s.sojourn()
		if !ok {
			break // absorbed: state frozen until the last horizon
		}
		t := now + dt
		improper := s.Improper(0)
		byz := s.grpFail[0]
		if t >= last {
			record(last, improper, byz)
			break
		}
		record(t, improper, byz)
		s.jump()
	}
	// absorbed (or finished): close out remaining horizons
	record(last, s.Improper(0), s.grpFail[0])
	for next < len(horizons) {
		res.ByzantineBy[next] = s.grpFail[0]
		res.FracDomainsExcluded[next] = s.FracDomainsExcluded()
		next++
	}
	if s.exclEvents > 0 {
		res.CorruptFracAtExclusion = s.exclCorruptFrac / float64(s.exclEvents)
	} else {
		res.CorruptFracAtExclusion = math.NaN()
	}
	res.RunningAtEnd = s.running[0]
	return res, nil
}

// FracDomainsExcluded is the model's excluded-domain fraction measure
// (zero under host exclusion, as in the paper).
func (s *Process) FracDomainsExcluded() float64 {
	if s.p.Policy == core.HostExclusion {
		return 0
	}
	n := 0
	for _, e := range s.domExcluded {
		if e {
			n++
		}
	}
	return float64(n) / float64(len(s.domExcluded))
}
