package mc_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/mc"
	"ituaval/internal/san"
	"ituaval/internal/study"
)

var updateChainGolden = flag.Bool("update-chain-golden", false,
	"rewrite testdata/chain_digest_golden.json from the current generator")

const chainGoldenPath = "testdata/chain_digest_golden.json"

// digestTopologies are the lumped anchor-family chains the digest pins:
// the generation-bound six single-host domains and the solve-bound
// 4-domain × 2-host shape, both with two applications of two replicas at
// the anchor's rates.
var digestTopologies = []struct{ domains, hosts, apps, replicas int }{
	{6, 1, 2, 2},
	{4, 2, 2, 2},
}

// anchorModel builds the analytic anchor family at the given topology and
// its symmetry canonicalizer.
func anchorModel(t *testing.T, domains, hosts, apps, replicas int) (*core.Model, *core.Canonicalizer) {
	t.Helper()
	p := study.AnalyticAnchorParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = domains, hosts, apps, replicas
	m, err := core.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	canon := core.NewCanonicalizer(m)
	if canon == nil {
		t.Fatalf("%dx%dx%dx%d admits no symmetry lumping", domains, hosts, apps, replicas)
	}
	return m, canon
}

// chainDigest is a SHA-256 over everything a solver reads from the chain:
// the state markings in state order, the CSR row pointers, columns and
// rate bits, and the bits of the dense initial distribution.
func chainDigest(c *mc.CTMC) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(c.NumStates()))
	for id := 0; id < c.NumStates(); id++ {
		for _, v := range c.StateMarking(id) {
			put(uint64(int64(v)))
		}
	}
	rowPtr, cols, rates := c.CSR()
	for _, v := range rowPtr {
		put(uint64(v))
	}
	for _, v := range cols {
		put(uint64(v))
	}
	for _, v := range rates {
		put(math.Float64bits(v))
	}
	for _, v := range c.InitialDistribution() {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestChainDigestGolden pins the lumped anchor-family chains bit for bit
// at one and two generation workers: the same states in the same order,
// the same transitions and rates, the same initial distribution. A change
// to how the generator explores the state space must leave every digest
// untouched; regenerate with -update-chain-golden only when a change is
// meant to alter the chain itself.
func TestChainDigestGolden(t *testing.T) {
	got := make(map[string]string)
	for _, tp := range digestTopologies {
		m, canon := anchorModel(t, tp.domains, tp.hosts, tp.apps, tp.replicas)
		for _, workers := range []int{1, 2} {
			c, err := mc.Generate(m.SAN, mc.Options{Workers: workers, Canon: canon})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%dx%dx%dx%d/workers=%d", tp.domains, tp.hosts, tp.apps, tp.replicas, workers)
			got[name] = fmt.Sprintf("states=%d transitions=%d sha256=%s",
				c.NumStates(), c.NumTransitions(), chainDigest(c))
		}
	}
	if *updateChainGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(chainGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(chainGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-chain-golden): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d chains, generated %d", len(want), len(got))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s:\n  got  %s\n  want %s", name, got[name], w)
		}
	}
}

// countingCanon counts the calls into a canonicalizer; the generation
// workers call it concurrently.
type countingCanon struct {
	inner mc.Canonicalizer
	calls atomic.Int64
}

func (c *countingCanon) Canonicalize(m []san.Marking) {
	c.calls.Add(1)
	c.inner.Canonicalize(m)
}

// TestCanonCallCount pins how often lumped generation of the six
// single-host domains canonicalizes. The init hook's uniform domain
// permutation enumerates 720² branches that collapse to a few hundred
// distinct raw markings; generation canonicalizes each distinct initial
// marking once, not once per branch (552,766 calls when it did), plus
// once per expansion successor. The count does not depend on the worker
// count, since every state is expanded exactly once.
func TestCanonCallCount(t *testing.T) {
	m, canon := anchorModel(t, 6, 1, 2, 2)
	for _, workers := range []int{1, 2} {
		cc := &countingCanon{inner: canon}
		c, err := mc.Generate(m.SAN, mc.Options{Workers: workers, Canon: cc})
		if err != nil {
			t.Fatal(err)
		}
		if n := c.NumStates(); n != 6242 {
			t.Fatalf("workers=%d: %d states, want 6242", workers, n)
		}
		if n := cc.calls.Load(); n >= 40000 {
			t.Errorf("workers=%d: %d canonicalizer calls, want < 40000", workers, n)
		} else {
			t.Logf("workers=%d: %d canonicalizer calls", workers, n)
		}
	}
}
