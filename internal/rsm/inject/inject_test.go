package inject

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/ituadirect"
	"ituaval/internal/rng"
)

func smallParams() core.Params {
	p := core.DefaultParams()
	p.NumDomains = 2
	p.HostsPerDomain = 1
	p.NumApps = 1
	p.RepsPerApp = 2
	return p
}

// mirror maintains the cluster's view of app 0 purely from hook calls, so
// the test can check that the hook protocol alone reconstructs the
// injector's state — the property the live cluster depends on.
type mirror struct {
	host      map[int]int
	corrupt   map[int]bool
	convicted map[int]bool
	trace     []string
}

func newMirror() *mirror {
	return &mirror{host: map[int]int{}, corrupt: map[int]bool{}, convicted: map[int]bool{}}
}

func (m *mirror) hooks() Hooks {
	return Hooks{
		StartReplica: func(a, slot, host int) {
			if a != 0 {
				return
			}
			m.host[slot] = host
			delete(m.corrupt, slot)
			delete(m.convicted, slot)
			m.trace = append(m.trace, fmt.Sprintf("start %d@%d", slot, host))
		},
		CorruptReplica: func(a, slot int) {
			if a != 0 {
				return
			}
			m.corrupt[slot] = true
			m.trace = append(m.trace, fmt.Sprintf("corrupt %d", slot))
		},
		ConvictReplica: func(a, slot int) {
			if a != 0 {
				return
			}
			delete(m.corrupt, slot)
			m.convicted[slot] = true
			m.trace = append(m.trace, fmt.Sprintf("convict %d", slot))
		},
		KillReplica: func(a, slot int) {
			if a != 0 {
				return
			}
			delete(m.host, slot)
			delete(m.corrupt, slot)
			delete(m.convicted, slot)
			m.trace = append(m.trace, fmt.Sprintf("kill %d", slot))
		},
		ExcludeHost: func(host int) {
			m.trace = append(m.trace, fmt.Sprintf("exclude host %d", host))
		},
		Partition: func(da, db int) {
			m.trace = append(m.trace, fmt.Sprintf("partition %d|%d", da, db))
		},
		Heal: func() { m.trace = append(m.trace, "heal") },
	}
}

func (m *mirror) check(t *testing.T, s *Process) {
	t.Helper()
	members := s.Members(0)
	if len(members) != len(m.host) {
		t.Fatalf("mirror has %d members, injector %d", len(m.host), len(members))
	}
	undet := 0
	for _, mem := range members {
		if h, ok := m.host[mem.Slot]; !ok || h != mem.Host {
			t.Fatalf("slot %d: mirror host %d (ok=%v), injector host %d", mem.Slot, h, ok, mem.Host)
		}
		if m.corrupt[mem.Slot] != mem.Corrupt {
			t.Fatalf("slot %d: mirror corrupt %v, injector %v", mem.Slot, m.corrupt[mem.Slot], mem.Corrupt)
		}
		if m.convicted[mem.Slot] != mem.Convicted {
			t.Fatalf("slot %d: mirror convicted %v, injector %v", mem.Slot, m.convicted[mem.Slot], mem.Convicted)
		}
		if mem.Corrupt {
			undet++
		}
	}
	if len(members) != s.Running(0) {
		t.Fatalf("Members(0) has %d entries, Running(0) = %d", len(members), s.Running(0))
	}
	if undet != s.Undet(0) {
		t.Fatalf("%d corrupt members, Undet(0) = %d", undet, s.Undet(0))
	}
	if want := 3*s.Undet(0) >= s.Running(0); s.Improper(0) != want {
		t.Fatalf("Improper(0) = %v, predicate says %v", s.Improper(0), want)
	}
}

// The hook protocol must reconstruct the injector's member state exactly
// after every transition, across both exclusion policies.
func TestInjectHooksMirrorState(t *testing.T) {
	for _, policy := range []core.Policy{core.DomainExclusion, core.HostExclusion} {
		p := smallParams()
		p.Policy = policy
		p.NumDomains = 4
		p.HostsPerDomain = 2
		p.RepsPerApp = 4
		for seed := uint64(1); seed <= 20; seed++ {
			m := newMirror()
			s, err := New(p, rng.New(seed), m.hooks())
			if err != nil {
				t.Fatal(err)
			}
			m.check(t, s)
			now := 0.0
			for {
				dt, fired := s.Step(6 - now)
				now += dt
				if !fired {
					break
				}
				m.check(t, s)
			}
		}
	}
}

// Same seed → identical trajectory (hook trace and final measures).
func TestInjectDeterministic(t *testing.T) {
	run := func() (*mirror, *Process) {
		m := newMirror()
		s, err := New(smallParams(), rng.New(42), m.hooks())
		if err != nil {
			t.Fatal(err)
		}
		now := 0.0
		for {
			dt, fired := s.Step(6 - now)
			now += dt
			if !fired {
				break
			}
		}
		return m, s
	}
	m1, s1 := run()
	m2, s2 := run()
	if len(m1.trace) != len(m2.trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(m1.trace), len(m2.trace))
	}
	for i := range m1.trace {
		if m1.trace[i] != m2.trace[i] {
			t.Fatalf("trace[%d]: %q vs %q", i, m1.trace[i], m2.trace[i])
		}
	}
	if s1.Byzantine(0) != s2.Byzantine(0) || s1.FracDomainsExcluded() != s2.FracDomainsExcluded() {
		t.Fatal("final measures differ across identical seeds")
	}
}

// Step must never apply a jump beyond the horizon: the state (and hook
// trace) after a capped Step is identical to the state before it.
func TestInjectStepRespectsHorizon(t *testing.T) {
	m := newMirror()
	s, err := New(smallParams(), rng.New(9), m.hooks())
	if err != nil {
		t.Fatal(err)
	}
	traceLen := len(m.trace)
	running, undet := s.Running(0), s.Undet(0)
	dt, fired := s.Step(1e-12) // virtually certain to cap
	if fired {
		t.Skip("jump landed inside 1e-12 hours; astronomically unlikely")
	}
	if dt != 1e-12 {
		t.Fatalf("capped Step returned dt = %v, want the cap", dt)
	}
	if len(m.trace) != traceLen || s.Running(0) != running || s.Undet(0) != undet {
		t.Fatal("capped Step mutated state")
	}
}

// stepTo steps s until the horizon T, returning the time during which the
// model's improper-service predicate held for app 0 and the (dt, fired)
// sequence of every Step.
func stepTo(s *Process, T float64) (bad float64, steps []string) {
	now := 0.0
	for {
		improper := s.Improper(0)
		dt, fired := s.Step(T - now)
		steps = append(steps, fmt.Sprintf("%x %v", math.Float64bits(dt), fired))
		if improper {
			bad += dt
		}
		now += dt
		if !fired {
			return bad, steps
		}
	}
}

// sameStreamConfigs covers both exclusion policies, all three placements,
// and the environment-fault vocabulary with a bounded repair crew.
func sameStreamConfigs() map[string]core.Params {
	base := smallParams()
	base.NumDomains, base.HostsPerDomain, base.RepsPerApp = 4, 2, 4
	cfgs := map[string]core.Params{"domain": base}
	host := base
	host.Policy = core.HostExclusion
	cfgs["host"] = host
	weighted := base
	weighted.Placement = core.WeightedRandomPlacement
	weighted.NumApps = 2
	cfgs["weighted"] = weighted
	least := host
	least.Placement = core.LeastLoadedPlacement
	least.NumApps = 2
	cfgs["least-loaded"] = least
	faults := base
	faults.NumApps = 2
	faults.PartitionRate, faults.PartitionHealRate = 2, 4
	faults.CampaignRate, faults.CampaignSize, faults.CampaignProb = 0.5, 3, 0.5
	faults.RepairCrew = 1
	cfgs["faults"] = faults
	return cfgs
}

// The injector steps ituadirect's own process, so on the same stream it
// must follow ituadirect.Run's trajectory exactly: equal Byzantine flag,
// excluded-domain fraction, and running replicas at the horizon, and equal
// unavailability up to summation order (Step accumulates sojourn times,
// Run integrates on absolute time).
func TestInjectMatchesDirectSameStream(t *testing.T) {
	const (
		reps = 300
		T    = 6.0
	)
	for name, p := range sameStreamConfigs() {
		for rep := 0; rep < reps; rep++ {
			s, err := New(p, rng.New(101).Derive(uint64(rep)), Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			bad, _ := stepTo(s, T)
			res, err := ituadirect.Run(p, rng.New(101).Derive(uint64(rep)), []float64{T})
			if err != nil {
				t.Fatal(err)
			}
			if s.Byzantine(0) != res.ByzantineBy[0] ||
				s.FracDomainsExcluded() != res.FracDomainsExcluded[0] ||
				s.Running(0) != res.RunningAtEnd ||
				math.Abs(bad-res.UnavailTime[0]) > 1e-9 {
				t.Fatalf("%s rep %d: inject (byz %v, excl %v, running %d, unavail %v) != direct (%v, %v, %d, %v)",
					name, rep, s.Byzantine(0), s.FracDomainsExcluded(), s.Running(0), bad,
					res.ByzantineBy[0], res.FracDomainsExcluded[0], res.RunningAtEnd, res.UnavailTime[0])
			}
		}
	}
}

// Hooks consume no randomness: stepping with the mirror hooks and with no
// hooks on the same stream gives the same (dt, fired) sequence and the same
// final state.
func TestInjectHooksDoNotPerturb(t *testing.T) {
	const T = 6.0
	for name, p := range sameStreamConfigs() {
		for seed := uint64(1); seed <= 30; seed++ {
			m := newMirror()
			hooked, err := New(p, rng.New(seed), m.hooks())
			if err != nil {
				t.Fatal(err)
			}
			bare, err := New(p, rng.New(seed), Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			_, hs := stepTo(hooked, T)
			_, bs := stepTo(bare, T)
			if strings.Join(hs, ",") != strings.Join(bs, ",") {
				t.Fatalf("%s seed %d: hooks changed the (dt, fired) sequence", name, seed)
			}
			for a := 0; a < p.NumApps; a++ {
				if fmt.Sprint(hooked.Members(a)) != fmt.Sprint(bare.Members(a)) ||
					hooked.Byzantine(a) != bare.Byzantine(a) ||
					hooked.ByzantineBlocked(a) != bare.ByzantineBlocked(a) ||
					hooked.Improper(a) != bare.Improper(a) {
					t.Fatalf("%s seed %d: hooks changed app %d's final state", name, seed, a)
				}
			}
			if hooked.FracDomainsExcluded() != bare.FracDomainsExcluded() || hooked.CrewBusy() != bare.CrewBusy() {
				t.Fatalf("%s seed %d: hooks changed the final system state", name, seed)
			}
		}
	}
}
