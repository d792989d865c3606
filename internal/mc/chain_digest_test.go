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
	"sort"
	"sync/atomic"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/mc"
	"ituaval/internal/san"
	"ituaval/internal/study"
)

var updateChainGolden = flag.Bool("update-chain-golden", false,
	"rewrite testdata/chain_digest_golden.json from the current generator")

var updateMarkingGolden = flag.Bool("update-marking-golden", false,
	"rewrite testdata/chain_marking_digest_golden.json from the current generator")

const (
	chainGoldenPath   = "testdata/chain_digest_golden.json"
	markingGoldenPath = "testdata/chain_marking_digest_golden.json"
)

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

// markingDigest is a SHA-256 over the chain as a set of markings, blind to
// state numbering: states sorted by marking key, each contributing its
// key, the bits of its initial probability, and its outgoing transitions
// as (target key, rate bits) pairs sorted by target key. Two generations
// that differ only in how they number the states digest identically.
func markingDigest(c *mc.CTMC) string {
	n := c.NumStates()
	keys := make([]string, n)
	for id := range keys {
		keys[id] = string(san.AppendMarkingKey(nil, c.StateMarking(id)))
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	initDist := c.InitialDistribution()
	rowPtr, cols, rates := c.CSR()

	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putKey := func(k string) {
		put(uint64(len(k)))
		h.Write([]byte(k))
	}
	type edge struct {
		to   string
		rate float64
	}
	var out []edge
	put(uint64(n))
	for _, id := range order {
		putKey(keys[id])
		put(math.Float64bits(initDist[id]))
		out = out[:0]
		for k := rowPtr[id]; k < rowPtr[id+1]; k++ {
			out = append(out, edge{keys[cols[k]], rates[k]})
		}
		sort.Slice(out, func(a, b int) bool { return out[a].to < out[b].to })
		put(uint64(len(out)))
		for _, e := range out {
			putKey(e.to)
			put(math.Float64bits(e.rate))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestChainMarkingDigestGolden pins the chains as sets of markings: the
// lumped anchor-family chains of digestTopologies, and weighted random
// placement at 3 domains × 2 hosts (two applications of two replicas),
// lumped and full, at one and two generation workers. Unlike
// TestChainDigestGolden it survives a renumbering of the states, so it is
// what shows that a change to the order in which the generator meets the
// states still builds the same chain with the same initial and
// transition bits. Regenerate with -update-marking-golden only when a
// change is meant to alter the chain itself. It skips under the race
// detector, where the full chain alone takes a minute.
func TestChainMarkingDigestGolden(t *testing.T) {
	if mc.RaceEnabled() {
		t.Skip("marking digest skipped under the race detector (a minute for the 123,857-state full chain; TestChainDigestGolden covers lumped generation there)")
	}
	type chain struct {
		name  string
		model *san.Model
		canon mc.Canonicalizer
	}
	var chains []chain
	for _, tp := range digestTopologies {
		m, canon := anchorModel(t, tp.domains, tp.hosts, tp.apps, tp.replicas)
		chains = append(chains, chain{fmt.Sprintf("%dx%dx%dx%d", tp.domains, tp.hosts, tp.apps, tp.replicas), m.SAN, canon})
	}
	p := study.AnalyticAnchorParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 3, 2, 2, 2
	p.Placement = core.WeightedRandomPlacement
	wm, err := core.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	wcanon := core.NewCanonicalizer(wm)
	if wcanon == nil {
		t.Fatal("weighted placement admits no symmetry lumping")
	}
	chains = append(chains,
		chain{"weighted-3x2x2x2", wm.SAN, wcanon},
		chain{"weighted-3x2x2x2/full", wm.SAN, nil})

	got := make(map[string]string)
	for _, ch := range chains {
		for _, workers := range []int{1, 2} {
			c, err := mc.Generate(ch.model, mc.Options{Workers: workers, Canon: ch.canon})
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("%s/workers=%d", ch.name, workers)] = fmt.Sprintf("states=%d transitions=%d sha256=%s",
				c.NumStates(), c.NumTransitions(), markingDigest(c))
		}
	}
	checkDigestGolden(t, got, markingGoldenPath, *updateMarkingGolden, "-update-marking-golden")
}

// checkDigestGolden compares got with the golden file at path, or rewrites
// the file when update is set.
func checkDigestGolden(t *testing.T, got map[string]string, path string, update bool, flagName string) {
	t.Helper()
	if update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with %s): %v", flagName, err)
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
	checkDigestGolden(t, got, chainGoldenPath, *updateChainGolden, "-update-chain-golden")
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
// single-host domains canonicalizes. The init hook reads two entries of
// each application's uniform domain permutation, so the resolver
// enumerates 30² prefix branches, each a distinct raw marking
// canonicalized once, not 720² full permutations (552,766 calls when
// each of those was canonicalized), plus one call per expansion
// successor. The count does not depend on the worker count, since every
// state is expanded exactly once.
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
