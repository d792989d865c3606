// Package inject drives the ITUA model's stochastic attack process against
// a live replicated service. It is a thin adapter over ituadirect.Process:
// the live arm steps the very process that ituadirect.Run simulates —
// attack arrivals per core.Params rates, probabilistic intrusion detection,
// intra-domain and system-wide spread, host/domain exclusion under both
// management policies, environment faults, and recovery-driven replica
// restart — and its lifecycle hooks corrupt, kill, and restart real
// replicas (internal/rsm) between client probes.
//
// On the same stream, stepping a Process to T and running ituadirect.Run to
// T draw the same numbers and follow the same trajectory (hooks consume no
// randomness). What this package adds is only what the live service needs:
// the member view of a replica group and the ByzantineBlocked latch.
package inject

import (
	"ituaval/internal/core"
	"ituaval/internal/ituadirect"
	"ituaval/internal/rng"
)

// Hooks notifies the live cluster of replica lifecycle events; see
// ituadirect.Hooks.
type Hooks = ituadirect.Hooks

// Member is the injector's view of one placed replica of an application.
type Member struct {
	Slot int // replica slot index
	Host int // flattened host index
	// Corrupt: the replica is corrupt and undetected (counts toward undet).
	Corrupt bool
	// Convicted: the group/IDS convicted it but the management response is
	// still pending (blocked on manager quorum). The live group quarantines
	// convicted members.
	Convicted bool
}

// Process is one replication of the attack CTMC, advanced one exponential
// jump at a time with Step.
type Process struct {
	*ituadirect.Process
	slots int // replica slots per application
	// latched[a] records that app a's Byzantine flag has latched, and
	// blocked[a] whether the partition isolated the group at that moment.
	latched, blocked []bool
}

// New builds the process in its initial state (replicas placed, no
// corruption) and fires StartReplica for every initial placement.
func New(p core.Params, rs *rng.Stream, h Hooks) (*Process, error) {
	s := &Process{slots: p.RepsPerApp}
	// The model latches the Byzantine flag only on a replica attack or a
	// kill, and fires CorruptReplica or KillReplica right after, so these
	// two hooks see the state of the latch itself.
	corrupt, kill := h.CorruptReplica, h.KillReplica
	h.CorruptReplica = func(a, slot int) {
		s.latch(a)
		if corrupt != nil {
			corrupt(a, slot)
		}
	}
	h.KillReplica = func(a, slot int) {
		s.latch(a)
		if kill != nil {
			kill(a, slot)
		}
	}
	proc, err := ituadirect.New(p, rs, h)
	if err != nil {
		return nil, err
	}
	s.Process = proc
	s.latched = make([]bool, p.NumApps)
	s.blocked = make([]bool, p.NumApps)
	return s, nil
}

func (s *Process) latch(a int) {
	if !s.latched[a] && s.Byzantine(a) {
		s.latched[a] = true
		s.blocked[a] = s.PartitionIsolated(a)
	}
}

// Members returns app a's placed replicas in slot order: the group the live
// service runs, including convicted-pending (quarantined) members.
func (s *Process) Members(a int) []Member {
	var out []Member
	for r := 0; r < s.slots; r++ {
		g, corrupt, convicted := s.Replica(a, r)
		if g < 0 {
			continue
		}
		out = append(out, Member{Slot: r, Host: g, Corrupt: corrupt && !convicted, Convicted: convicted})
	}
	return out
}

// ByzantineBlocked reports whether app a's Byzantine latch fired while the
// partition isolated the group. The model latches on corruption share
// alone (state-based, like the SAN and direct engines), but in that
// geometry the colluders cannot reach the correct replicas to force a
// forged delivery, so the live service may legitimately never certify a
// wrong answer — the one environment-induced case where the model's
// unreliability bounds the measured value from above instead of equalling
// it.
func (s *Process) ByzantineBlocked(a int) bool { return s.blocked[a] }
