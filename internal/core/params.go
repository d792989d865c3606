// Package core implements the paper's primary contribution: the composed
// stochastic activity network model of the ITUA intrusion-tolerant
// replication system, with both the domain-exclusion and host-exclusion
// management algorithms, and the intrusion-tolerance measures defined on it
// (unavailability and unreliability for an interval, replicas running, load
// per host, fraction of corrupt hosts in an excluded domain, and fraction of
// excluded domains).
//
// The model follows Section 2–3 of Singh, Cukier & Sanders (DSN 2003):
// hosts grouped into security domains, each host running one manager;
// applications replicated with at most one replica per application per
// domain; three classes of host attacks (script-based, exploratory,
// innovative) with class-specific intrusion-detection probabilities; false
// alarms that convict innocent replicas and hosts; intra-domain and
// system-wide attack spread that raises host attack rates; Byzantine
// one-third thresholds for replication groups and manager groups; and a
// decentralized recovery algorithm that restarts killed replicas on
// uniformly chosen qualifying domains and hosts.
package core

import (
	"errors"
	"fmt"
)

// Policy selects the management algorithm's response to a detected
// corruption (Section 4.3 of the paper).
type Policy int

const (
	// DomainExclusion excludes the entire security domain containing a
	// detected corruption — the paper's preemptive default.
	DomainExclusion Policy = iota + 1
	// HostExclusion excludes only the host on which the corruption was
	// detected — the paper's resource-saving alternative.
	HostExclusion
)

func (p Policy) String() string {
	switch p {
	case DomainExclusion:
		return "domain-exclusion"
	case HostExclusion:
		return "host-exclusion"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Placement selects how the recovery algorithm picks the host for a new
// replica within the chosen domain. The paper uses uniform random choice;
// the alternatives explore the ITUA architecture's "unpredictable
// adaptation" theme (ablation abl-placement).
type Placement int

const (
	// UniformPlacement picks a live host uniformly (the paper's scheme).
	UniformPlacement Placement = iota + 1
	// LeastLoadedPlacement picks the live host with the fewest replicas
	// (deterministic, hence predictable by the attacker).
	LeastLoadedPlacement
	// WeightedRandomPlacement picks a live host with probability inversely
	// proportional to 1 + its replica count (randomized load balancing).
	WeightedRandomPlacement
)

func (p Placement) String() string {
	switch p {
	case UniformPlacement:
		return "uniform"
	case LeastLoadedPlacement:
		return "least-loaded"
	case WeightedRandomPlacement:
		return "weighted-random"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Params configures the ITUA model. Time unit is one hour throughout, as in
// the paper ("for ease of understanding, consider one time unit = one
// hour"). The zero value is not usable; start from DefaultParams.
type Params struct {
	// Topology.
	NumDomains     int // security domains
	HostsPerDomain int // hosts in each domain (paper assumes equal sizes)
	NumApps        int // replicated applications
	RepsPerApp     int // replicas per application (7 in every paper study)

	// Policy is the exclusion algorithm.
	Policy Policy

	// TotalAttackRate is the cumulative base rate of successful attacks on
	// the system (3/h in the paper). It is divided over attack targets by
	// the AttackSplit weights and then evenly over the entities of each
	// kind; spread and corruption multipliers raise the effective rates
	// above the base, as in the paper.
	TotalAttackRate    float64
	AttackSplitHost    float64 // weight of host-OS/services attacks
	AttackSplitReplica float64 // weight of application-replica attacks
	AttackSplitMgr     float64 // weight of management-entity attacks

	// TotalFalseAlarmRate is the cumulative false-alarm rate (2/h in the
	// paper), split by the FalseSplit weights between host-level alarms
	// (OS or manager infiltration) and replica-corruption alarms.
	TotalFalseAlarmRate float64
	FalseSplitHost      float64
	FalseSplitReplica   float64

	// Attack-class distribution for host attacks (80/15/5 in the paper).
	PScript, PExploratory, PInnovative float64

	// Intrusion-detection success probabilities (paper defaults: 0.9
	// script, 0.75 exploratory, 0.4 innovative, 0.8 replicas, 0.8
	// managers). Each corruption gets one detection trial.
	DetectScript, DetectExploratory, DetectInnovative float64
	DetectReplica, DetectMgr                          float64

	// Detection trial rates: the reciprocal mean latency of the whole
	// detect-confirm-respond pipeline of the intrusion detection software.
	// The paper does not publish these; the defaults (0.25/h) were
	// calibrated so the exclusion dynamics reproduce the published figure
	// shapes (see DESIGN.md and EXPERIMENTS.md).
	HostDetectRate, ReplicaDetectRate, MgrDetectRate float64

	// Attack spread. A corrupted host fires one intra-domain and one
	// system-wide propagation event. As in the paper, a single "spread
	// effect" variable per level both sets the propagation rate and scales
	// the resulting vulnerability increase: with d intra-domain and s
	// system-wide propagation events recorded, host attack rates grow as
	// base × (1 + SpreadRateCoeff × (DomainSpreadRate·d + SystemSpreadRate·s)).
	DomainSpreadRate float64 // 1/h default; swept 0..10 in study 3
	SystemSpreadRate float64 // 0.1/h default
	SpreadRateCoeff  float64 // default 1

	// AssetSpreadCoeff scales how much intra-domain spread additionally
	// raises the attack rates on the *assets* (replicas and managers) of
	// the domain's hosts, on top of the host-corruption multiplier:
	// assetRate × (1 + AssetSpreadCoeff × DomainSpreadRate × spreadCount).
	// Zero restricts the spread effect to host-OS attacks as in the
	// narrowest reading of the paper.
	AssetSpreadCoeff float64

	// CorruptionMult multiplies the attack rates on a host's replicas and
	// manager once the host OS is corrupted (2 default; 5 in study 3).
	CorruptionMult float64

	// MisbehaveRate is the rate at which a corrupt replica exhibits
	// anomalous behaviour observable by its replication group (2/h).
	MisbehaveRate float64

	// RecoveryRate is the rate of the management recovery action that
	// starts one replacement replica (high: default 60/h ≈ one minute).
	RecoveryRate float64

	// RateBaseHosts and RateBaseReplicas, when positive, fix the entity
	// counts used to convert the cumulative attack and false-alarm budgets
	// into per-entity rates, instead of the swept topology's own counts.
	// Study 2 (Fig 4) holds the per-host intrusion probability constant
	// while the total number of hosts grows, so its sweep sets
	// RateBaseHosts to the baseline topology's host count.
	RateBaseHosts    int
	RateBaseReplicas int

	// Placement selects the host-choice rule used by recovery and initial
	// placement (default UniformPlacement, the paper's scheme).
	Placement Placement

	// ExcludeOnReplicaConviction controls the management response to a
	// replica convicted by its replication group or by the IDS: if true,
	// the conviction requests the configured domain/host exclusion (the
	// strict reading of Section 2's prose); if false (default), the
	// convicted replica is killed and restarted elsewhere, and exclusions
	// are triggered only by IDS detections of host-OS or manager
	// infiltration. The published curves of Figures 3–5 are reproduced by
	// the default; EXPERIMENTS.md discusses the discrepancy.
	ExcludeOnReplicaConviction bool

	// Analytic marked the model for numerical (CTMC) solution, where the
	// intrusions counter had to saturate at 1 to keep the state space
	// finite. The counter now latches at 1 in every mode (every guard and
	// measure tests intrusions == 0 only), so the field changes nothing
	// Build makes: it is inert, kept only because checkpoint keys
	// serialize Params and the benchmark's exact workloads set it.
	Analytic bool

	// Environment faults (all zero by default, reproducing the paper's
	// independent-intrusion world exactly — see DESIGN.md "Environment
	// faults"). The Environment submodel adds correlated adversity on top
	// of the per-entity attack processes.

	// PartitionRate is the rate at which the network severs one uniformly
	// chosen pair of security domains. At most one partition is active at
	// a time; while severed, management quorums are blocked (no
	// convictions, exclusions, or recoveries complete) and system-wide
	// attack spread cannot originate from either side of the cut. A
	// positive rate requires PartitionHealRate > 0 and NumDomains >= 2.
	PartitionRate float64
	// PartitionHealRate is the reciprocal mean duration of a partition
	// (exponential healing time).
	PartitionHealRate float64

	// CampaignRate is the rate of correlated attack campaigns. Each
	// firing picks min(CampaignSize, eligible) distinct uncorrupted,
	// unexcluded hosts uniformly and corrupts each independently with
	// probability CampaignProb — a Binomial(k, p) batch compromise in one
	// event. Corrupted hosts draw an attack class from the usual
	// PScript/PExploratory/PInnovative mix; spread and detection then
	// follow the ordinary per-host machinery.
	CampaignRate float64
	// CampaignSize is the number of hosts targeted per campaign firing
	// (the Binomial k). Must be >= 1 when CampaignRate > 0.
	CampaignSize int
	// CampaignProb is the per-target compromise probability (the Binomial
	// p). Must be in (0, 1] when CampaignRate > 0.
	CampaignProb float64

	// RepairCrew, when positive, bounds the management infrastructure's
	// restart capacity: a pool of RepairCrew repair servers, each able to
	// serve one application's recovery at a time. A recovery must first
	// claim an idle crew member (instantaneous when one is free) and
	// holds it for the whole exponential RecoveryRate service; the model
	// maintains the conservation law busy + idle = RepairCrew. Zero means
	// unbounded repair capacity (the paper's implicit assumption).
	RepairCrew int
}

// DefaultParams returns the paper's baseline configuration (Section 4):
// the topology fields are zero and must be set by the caller.
func DefaultParams() Params {
	return Params{
		Policy:              DomainExclusion,
		TotalAttackRate:     3,
		AttackSplitHost:     1,
		AttackSplitReplica:  2,
		AttackSplitMgr:      0.3,
		TotalFalseAlarmRate: 2,
		FalseSplitHost:      1,
		FalseSplitReplica:   1,
		PScript:             0.80,
		PExploratory:        0.15,
		PInnovative:         0.05,
		DetectScript:        0.90,
		DetectExploratory:   0.75,
		DetectInnovative:    0.40,
		DetectReplica:       0.80,
		DetectMgr:           0.80,
		HostDetectRate:      0.25,
		ReplicaDetectRate:   0.25,
		MgrDetectRate:       0.25,
		DomainSpreadRate:    1,
		SystemSpreadRate:    0.1,
		SpreadRateCoeff:     1,
		AssetSpreadCoeff:    0.5,
		CorruptionMult:      2,
		MisbehaveRate:       2,
		RecoveryRate:        60,
		Placement:           UniformPlacement,
	}
}

// Validate checks the configuration.
func (p Params) Validate() error {
	var errs []error
	add := func(cond bool, format string, args ...interface{}) {
		if cond {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	add(p.NumDomains < 1, "NumDomains must be >= 1, got %d", p.NumDomains)
	add(p.HostsPerDomain < 1, "HostsPerDomain must be >= 1, got %d", p.HostsPerDomain)
	add(p.NumApps < 1, "NumApps must be >= 1, got %d", p.NumApps)
	add(p.NumApps > 15, "NumApps must be <= 15 (the paper's app_id bit-vector bound), got %d", p.NumApps)
	add(p.RepsPerApp < 1, "RepsPerApp must be >= 1, got %d", p.RepsPerApp)
	add(p.Policy != DomainExclusion && p.Policy != HostExclusion, "invalid Policy %d", int(p.Policy))
	add(p.TotalAttackRate < 0, "TotalAttackRate must be >= 0")
	add(p.AttackSplitHost < 0 || p.AttackSplitReplica < 0 || p.AttackSplitMgr < 0, "attack split weights must be >= 0")
	add(p.AttackSplitHost+p.AttackSplitReplica+p.AttackSplitMgr <= 0, "attack split weights must not all be zero")
	add(p.TotalFalseAlarmRate < 0, "TotalFalseAlarmRate must be >= 0")
	add(p.FalseSplitHost < 0 || p.FalseSplitReplica < 0, "false-alarm split weights must be >= 0")
	add(p.FalseSplitHost+p.FalseSplitReplica <= 0, "false-alarm split weights must not all be zero")
	probs := map[string]float64{
		"PScript": p.PScript, "PExploratory": p.PExploratory, "PInnovative": p.PInnovative,
		"DetectScript": p.DetectScript, "DetectExploratory": p.DetectExploratory,
		"DetectInnovative": p.DetectInnovative, "DetectReplica": p.DetectReplica, "DetectMgr": p.DetectMgr,
	}
	for name, v := range probs {
		add(v < 0 || v > 1, "%s must be in [0,1], got %v", name, v)
	}
	add(p.PScript+p.PExploratory+p.PInnovative <= 0, "attack class probabilities must not all be zero")
	add(p.HostDetectRate < 0 || p.ReplicaDetectRate < 0 || p.MgrDetectRate < 0, "detection rates must be >= 0")
	add(p.DomainSpreadRate < 0 || p.SystemSpreadRate < 0, "spread rates must be >= 0")
	add(p.SpreadRateCoeff < 0, "SpreadRateCoeff must be >= 0")
	add(p.AssetSpreadCoeff < 0, "AssetSpreadCoeff must be >= 0")
	add(p.CorruptionMult < 1, "CorruptionMult must be >= 1, got %v", p.CorruptionMult)
	add(p.MisbehaveRate < 0, "MisbehaveRate must be >= 0")
	add(p.RecoveryRate <= 0, "RecoveryRate must be > 0")
	add(p.RateBaseHosts < 0 || p.RateBaseReplicas < 0, "rate base counts must be >= 0")
	add(p.Placement < UniformPlacement || p.Placement > WeightedRandomPlacement, "invalid Placement %d", int(p.Placement))
	add(p.PartitionRate < 0, "PartitionRate must be >= 0")
	add(p.PartitionHealRate < 0, "PartitionHealRate must be >= 0")
	add(p.PartitionRate > 0 && p.PartitionHealRate <= 0, "PartitionRate > 0 requires PartitionHealRate > 0")
	add(p.PartitionRate > 0 && p.NumDomains < 2, "PartitionRate > 0 requires NumDomains >= 2")
	add(p.CampaignRate < 0, "CampaignRate must be >= 0")
	add(p.CampaignSize < 0, "CampaignSize must be >= 0")
	add(p.CampaignProb < 0 || p.CampaignProb > 1, "CampaignProb must be in [0,1], got %v", p.CampaignProb)
	add(p.CampaignRate > 0 && p.CampaignSize < 1, "CampaignRate > 0 requires CampaignSize >= 1")
	add(p.CampaignRate > 0 && p.CampaignProb <= 0, "CampaignRate > 0 requires CampaignProb > 0")
	add(p.RepairCrew < 0, "RepairCrew must be >= 0")
	return errors.Join(errs...)
}

// NumHosts returns the total host count.
func (p Params) NumHosts() int { return p.NumDomains * p.HostsPerDomain }

// InitialGroupSize returns the number of replicas each application starts
// with: RepsPerApp capped by the one-replica-per-domain placement rule.
func (p Params) InitialGroupSize() int { return min(p.RepsPerApp, p.NumDomains) }

// derived per-entity base rates.
type rates struct {
	hostAttack    float64 // per host
	replicaAttack float64 // per replica slot (running)
	mgrAttack     float64 // per manager
	hostFalse     float64 // per host
	replicaFalse  float64 // per running replica
}

func (p Params) derive() rates {
	wSum := p.AttackSplitHost + p.AttackSplitReplica + p.AttackSplitMgr
	hosts := float64(p.NumHosts())
	if p.RateBaseHosts > 0 {
		hosts = float64(p.RateBaseHosts)
	}
	replicas := float64(p.NumApps * p.InitialGroupSize())
	if p.RateBaseReplicas > 0 {
		replicas = float64(p.RateBaseReplicas)
	}
	fSum := p.FalseSplitHost + p.FalseSplitReplica
	r := rates{}
	if hosts > 0 {
		r.hostAttack = p.TotalAttackRate * p.AttackSplitHost / wSum / hosts
		r.mgrAttack = p.TotalAttackRate * p.AttackSplitMgr / wSum / hosts
		r.hostFalse = p.TotalFalseAlarmRate * p.FalseSplitHost / fSum / hosts
	}
	if replicas > 0 {
		r.replicaAttack = p.TotalAttackRate * p.AttackSplitReplica / wSum / replicas
		r.replicaFalse = p.TotalFalseAlarmRate * p.FalseSplitReplica / fSum / replicas
	}
	return r
}
