package mc_test

import (
	"os"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/mc"
)

// benchITUAParams is the 4-domain topology on which symmetry lumping was
// first measured: four exchangeable domains of one host each (symmetry
// group S_4, order 24), the analytic study's corruption multiplier, at the
// spread-0 structural corner with the false-alarm and manager-attack
// channels disabled so the full chain stays generateable for the
// comparison. Analytic saturates the intrusion counter, as the exact path
// requires.
func benchITUAParams() core.Params {
	p := core.DefaultParams()
	p.NumDomains = 4
	p.HostsPerDomain = 1
	p.NumApps = 1
	p.RepsPerApp = 2
	p.CorruptionMult = 5
	p.DomainSpreadRate = 0
	p.SystemSpreadRate = 0
	p.TotalFalseAlarmRate = 0
	p.AttackSplitMgr = 0
	p.Analytic = true
	return p
}

// checkITUAChainSize generates the benchITUAParams chain, symmetry-lumped
// or full, at worker counts 1 and 2 and pins its size.
func checkITUAChainSize(t *testing.T, lump bool, states, transitions int) {
	t.Helper()
	m, err := core.Build(benchITUAParams())
	if err != nil {
		t.Fatal(err)
	}
	opts := mc.Options{MaxStates: 1 << 23}
	if lump {
		canon := core.NewCanonicalizer(m)
		if canon == nil {
			t.Fatal("4x1 topology must admit a canonicalizer")
		}
		opts.Canon = canon
	}
	for _, workers := range []int{1, 2} {
		opts.Workers = workers
		c, err := mc.Generate(m.SAN, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n := c.NumStates(); n != states {
			t.Errorf("workers=%d: %d states, want %d", workers, n, states)
		}
		if n := c.NumTransitions(); n != transitions {
			t.Errorf("workers=%d: %d transitions, want %d", workers, n, transitions)
		}
	}
}

// TestITUALumpedChainSize pins the quotient of the 4-domain × 1-host
// chain: 39,062 states against the full chain's 806,275 (20.6×).
func TestITUALumpedChainSize(t *testing.T) {
	checkITUAChainSize(t, true, 39062, 240132)
}

// TestITUAFullChainSize pins the unlumped 4-domain × 1-host chain. It takes
// several seconds, so it runs in the lumpcheck lane (LUMPCHECK_FULL=1).
func TestITUAFullChainSize(t *testing.T) {
	if os.Getenv("LUMPCHECK_FULL") == "" {
		t.Skip("set LUMPCHECK_FULL=1 (make lumpcheck) to generate the full 4x1 chain")
	}
	checkITUAChainSize(t, false, 806275, 5235808)
}
