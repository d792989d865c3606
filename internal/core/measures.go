package core

import (
	"ituaval/internal/reward"
	"ituaval/internal/san"
)

// Improper returns the improper-service predicate for application app: a
// third or more of the currently running replicas are corrupt but
// undetected (a Byzantine fault), with "no replicas running" improper.
// When the model has the partition feature, service is also improper while
// an active partition isolates the whole replica group across the cut:
// every running replica sits in one of the two severed domains with at
// least one on each side, so no relay path exists and neither side can
// assemble a response majority (under the one-replica-per-domain placement
// law the severed sides hold one replica each). Partitions never cause
// Byzantine (wrong-answer) faults, so Byzantine is unchanged.
func (m *Model) Improper(app int) func(s *san.State) bool {
	running, undet := m.Running[app], m.Undet[app]
	hasRep := m.HasReplica[app]
	pa, pb := m.PartitionA, m.PartitionB
	return func(s *san.State) bool {
		if 3*s.Int(undet) >= s.Int(running) {
			return true
		}
		if pa == nil || s.Get(pa) == 0 {
			return false
		}
		da, db := s.Int(pa)-1, s.Int(pb)-1
		inCut := 0
		for d := range hasRep {
			if s.Get(hasRep[d]) == 0 {
				continue
			}
			if d == da || d == db {
				inCut++
			} else {
				return false // a replica outside the cut relays
			}
		}
		return inCut == 2
	}
}

// improperIndicator is Improper as a 0/1 rate reward.
func (m *Model) improperIndicator(app int) func(s *san.State) float64 {
	pred := m.Improper(app)
	return func(s *san.State) float64 {
		if pred(s) {
			return 1
		}
		return 0
	}
}

// UnavailabilityVar is Unavailability's reward variable. It names its
// application, so the engines that compute the measure without observers
// (the direct simulator, the live replica group, the exact solver) can.
type UnavailabilityVar struct {
	reward.TimeAverage
	App int
}

// Unavailability is the paper's "unavailability for an interval": the
// expected fraction of [from, to] during which application app's service is
// improper.
func (m *Model) Unavailability(name string, app int, from, to float64) *UnavailabilityVar {
	return &UnavailabilityVar{reward.TimeAverage{VarName: name, F: m.improperIndicator(app), From: from, To: to}, app}
}

// Byzantine returns the Byzantine-fault predicate for application app: at
// least one running replica is corrupt-undetected and such replicas are a
// third or more of those running. This is the condition under which the
// model latches rep_grp_failure; unlike Improper it excludes pure
// replica exhaustion.
func (m *Model) Byzantine(app int) func(s *san.State) bool {
	running, undet := m.Running[app], m.Undet[app]
	return func(s *san.State) bool {
		u := s.Int(undet)
		return u > 0 && 3*u >= s.Int(running)
	}
}

// UnreliabilityVar is Unreliability's reward variable (see
// UnavailabilityVar).
type UnreliabilityVar struct {
	reward.FirstPassage
	App int
}

// Unreliability is the paper's "unreliability for an interval": the
// probability that the application suffered a Byzantine fault (the
// rep_grp_failure condition) at least once in [0, by].
func (m *Model) Unreliability(name string, app int, by float64) *UnreliabilityVar {
	return &UnreliabilityVar{reward.FirstPassage{VarName: name, Pred: m.Byzantine(app), By: by}, app}
}

// ImproperEver is the probability that service was improper — Byzantine
// fault or no replicas left — at least once in [0, by] (a stricter
// diagnostic variant of Unreliability).
func (m *Model) ImproperEver(name string, app int, by float64) reward.Var {
	return &reward.FirstPassage{VarName: name, Pred: m.Improper(app), By: by}
}

// GroupFailed reads the model's rep_grp_failure latch at time t — the
// paper's own encoding of unreliability, kept alongside Unreliability so
// tests can verify the two definitions coincide.
func (m *Model) GroupFailed(name string, app int, t float64) reward.Var {
	latch := m.GrpFail[app]
	return &reward.AtTime{VarName: name, T: t, F: func(s *san.State) float64 {
		return float64(s.Get(latch))
	}}
}

// ReplicasRunning is the number of replicas of application app still
// running at time t.
func (m *Model) ReplicasRunning(name string, app int, t float64) reward.Var {
	running := m.Running[app]
	return &reward.AtTime{VarName: name, T: t, F: func(s *san.State) float64 {
		return float64(s.Get(running))
	}}
}

// LoadPerHost is the mean number of replicas per non-excluded host at time
// t (the paper's "number of replicas per host or the load on a host"). If
// every host is excluded the load is reported as zero.
func (m *Model) LoadPerHost(name string, t float64) reward.Var {
	return &reward.AtTime{VarName: name, T: t, F: func(s *san.State) float64 {
		replicas, up := 0, 0
		for g := range m.NumReplicas {
			if s.Get(m.HostExcluded[g]) == 0 {
				up++
				replicas += s.Int(m.NumReplicas[g])
			}
		}
		if up == 0 {
			return 0
		}
		return float64(replicas) / float64(up)
	}}
}

// FracExcludedVar is FracDomainsExcluded's reward variable (see
// UnavailabilityVar).
type FracExcludedVar struct{ reward.AtTime }

// FracDomainsExcluded is the fraction of security domains excluded by time
// t.
func (m *Model) FracDomainsExcluded(name string, t float64) *FracExcludedVar {
	excluded := m.DomainsExcluded
	n := float64(m.Params.NumDomains)
	return &FracExcludedVar{reward.AtTime{VarName: name, T: t, F: func(s *san.State) float64 {
		return float64(s.Get(excluded)) / n
	}}}
}

// FracCorruptHostsAtExclusion is the paper's "fraction of corrupt hosts in
// a domain when it is excluded", averaged over the exclusion events of one
// replication within [0, by]. Only meaningful under DomainExclusion.
func (m *Model) FracCorruptHostsAtExclusion(name string, by float64) reward.Var {
	return &reward.ImpulseMean{
		VarName: name,
		Match: func(a *san.Activity, _ int) bool {
			return m.shutActivity[a.Name()]
		},
		V: func(s *san.State, _ *san.Activity) float64 {
			total := s.Int(m.LastExclTotal)
			if total == 0 {
				return 0
			}
			return float64(s.Get(m.LastExclCorrupt)) / float64(total)
		},
		From: 0, To: by,
	}
}

// DomainExclusions counts domain (or host, under HostExclusion) exclusion
// events in [0, by].
func (m *Model) DomainExclusions(name string, by float64) reward.Var {
	return &reward.Count{
		VarName: name,
		Match: func(a *san.Activity, _ int) bool {
			return m.shutActivity[a.Name()]
		},
		From: 0, To: by,
	}
}

// CorruptHostsFrac is the fraction of all hosts whose OS is corrupt at time
// t (diagnostic; not a paper figure).
func (m *Model) CorruptHostsFrac(name string, t float64) reward.Var {
	n := float64(len(m.HostStatus))
	return &reward.AtTime{VarName: name, T: t, F: func(s *san.State) float64 {
		c := 0
		for _, hs := range m.HostStatus {
			if s.Get(hs) > 0 {
				c++
			}
		}
		return float64(c) / n
	}}
}

// TimeToByzantine emits the time of application app's first Byzantine
// fault (only for replications where one occurred); together with
// Unreliability it characterizes the failure-time distribution.
func (m *Model) TimeToByzantine(name string, app int) reward.Var {
	return &reward.FirstPassageTime{VarName: name, Pred: m.Byzantine(app)}
}

// TimeToFirstExclusion emits the time of the first domain (or host, under
// HostExclusion) exclusion, for replications with at least one.
func (m *Model) TimeToFirstExclusion(name string) reward.Var {
	return &reward.Func{VarName: name, New: func() reward.Observer {
		return &firstExclusionObs{m: m}
	}}
}

type firstExclusionObs struct {
	m        *Model
	recorded bool
	when     float64
}

func (o *firstExclusionObs) Init(*san.State, float64)             {}
func (o *firstExclusionObs) Advance(*san.State, float64, float64) {}
func (o *firstExclusionObs) Done(*san.State, float64)             {}
func (o *firstExclusionObs) Fired(_ *san.State, a *san.Activity, _ int, t float64) {
	if !o.recorded && o.m.shutActivity[a.Name()] {
		o.recorded, o.when = true, t
	}
}
func (o *firstExclusionObs) Results(emit func(float64)) {
	if o.recorded {
		emit(o.when)
	}
}

// hostsUpF returns a rate-reward function counting non-excluded hosts
// (resource-preservation diagnostic used by the policy comparison).
func (m *Model) hostsUpF() func(s *san.State) float64 {
	return func(s *san.State) float64 {
		up := 0
		for _, e := range m.HostExcluded {
			if s.Get(e) == 0 {
				up++
			}
		}
		return float64(up)
	}
}

// HostsUp is the number of non-excluded hosts at time t.
func (m *Model) HostsUp(name string, t float64) reward.Var {
	return &reward.AtTime{VarName: name, T: t, F: m.hostsUpF()}
}
