package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"ituaval/internal/mc"
	"ituaval/internal/san"
)

// canonParams is a small analytic configuration whose full chain generates
// quickly; the reachable states serve as the test corpus for the
// canonicalizer (random marking vectors would not respect the model's
// structural invariants).
func canonParams(d, h, apps, reps int) Params {
	p := DefaultParams()
	p.NumDomains = d
	p.HostsPerDomain = h
	p.NumApps = apps
	p.RepsPerApp = reps
	p.DomainSpreadRate = 0
	p.Analytic = true
	return p
}

// canonTrim disables the host/manager attack and replica false-alarm
// channels (keeping replica attacks and host false alarms), collapsing the
// per-host state space so that even a 4x2 topology generates in
// milliseconds. The canonicalizer sees exactly the same place families
// either way; the trim only shrinks the reachable corpus.
func canonTrim(p *Params) {
	p.CorruptionMult = 5
	p.SystemSpreadRate = 0
	p.AttackSplitHost = 0
	p.AttackSplitMgr = 0
	p.FalseSplitReplica = 0
}

func fullChain(t *testing.T, m *Model, maxStates int) *mc.CTMC {
	t.Helper()
	c, err := mc.Generate(m.SAN, mc.Options{MaxStates: maxStates})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// applyGroupElement permutes marking m by an arbitrary group element:
// within-domain host permutations hp (hp[d] over [0,H)) composed with a
// domain permutation dp, driving the canonicalizer's own reference-aware
// permute so OnHost and partition references stay consistent.
func applyGroupElement(c *Canonicalizer, m []san.Marking, hp [][]int, dp []int) {
	s := &canonScratch{
		perm:  make([]int32, c.d*c.h),
		dPerm: make([]int32, c.d),
		out:   make([]san.Marking, len(m)),
	}
	for d := 0; d < c.d; d++ {
		s.dPerm[d] = int32(dp[d])
		for h := 0; h < c.h; h++ {
			s.perm[d*c.h+h] = int32(dp[d]*c.h + hp[d][h])
		}
	}
	c.permute(m, s)
}

func randomGroupElement(r *rand.Rand, d, h int) (hp [][]int, dp []int) {
	hp = make([][]int, d)
	for i := range hp {
		hp[i] = r.Perm(h)
	}
	return hp, r.Perm(d)
}

func TestNewCanonicalizerGate(t *testing.T) {
	p := canonParams(1, 1, 1, 1)
	if NewCanonicalizer(mustBuild(t, p)) != nil {
		t.Fatal("single-host model should have no canonicalizer")
	}
	p = canonParams(2, 2, 1, 2)
	p.Placement = LeastLoadedPlacement
	if NewCanonicalizer(mustBuild(t, p)) != nil {
		t.Fatal("least-loaded placement is not equivariant; canonicalizer must be refused")
	}
	p.Placement = UniformPlacement
	if NewCanonicalizer(mustBuild(t, p)) == nil {
		t.Fatal("expected a canonicalizer for a symmetric topology")
	}
	p.Placement = WeightedRandomPlacement
	if NewCanonicalizer(mustBuild(t, p)) == nil {
		t.Fatal("weighted-random placement is equivariant; expected a canonicalizer")
	}
}

// TestCanonicalizeIdempotentAndOrbitInvariant checks the two contract
// properties on every reachable state of several configurations: applying
// Canonicalize twice equals applying it once, and every marking in an
// orbit — produced by applying random group elements — canonicalizes to
// the same representative.
func TestCanonicalizeIdempotentAndOrbitInvariant(t *testing.T) {
	// Domain symmetry with every default channel, host symmetry, and a
	// trimmed 4x2 exercising both layers at once.
	domSym := canonParams(2, 1, 1, 2)
	hostSym := canonParams(1, 2, 1, 1)
	both := canonParams(4, 2, 1, 2)
	canonTrim(&both)
	configs := []Params{domSym, hostSym, both}
	// Exercise partition-pair reference rewriting and the repair-crew
	// places (campaigns re-enable host corruption, which explodes a 2x2
	// space, so the campaign channel gets its own single-host config).
	envPart := canonParams(2, 2, 1, 2)
	canonTrim(&envPart)
	envPart.PartitionRate = 0.1
	envPart.PartitionHealRate = 2
	envPart.RepairCrew = 1
	envCamp := canonParams(2, 1, 1, 2)
	canonTrim(&envCamp)
	envCamp.RepairCrew = 1
	envCamp.CampaignRate = 0.05
	envCamp.CampaignSize = 2
	envCamp.CampaignProb = 0.5
	configs = append(configs, envPart, envCamp)

	for _, p := range configs {
		m := mustBuild(t, p)
		canon := NewCanonicalizer(m)
		if canon == nil {
			t.Fatalf("%dx%d: nil canonicalizer", p.NumDomains, p.HostsPerDomain)
		}
		c := fullChain(t, m, 1<<19)
		r := rand.New(rand.NewSource(42))
		rep := make([]san.Marking, len(c.StateMarking(0)))
		work := make([]san.Marking, len(rep))
		for id := 0; id < c.NumStates(); id++ {
			copy(rep, c.StateMarking(id))
			canon.Canonicalize(rep)
			copy(work, rep)
			canon.Canonicalize(work)
			if !markingsEqual(rep, work) {
				t.Fatalf("%dx%d state %d: Canonicalize is not idempotent:\n%v\n%v",
					p.NumDomains, p.HostsPerDomain, id, rep, work)
			}
			for trial := 0; trial < 4; trial++ {
				copy(work, c.StateMarking(id))
				hp, dp := randomGroupElement(r, p.NumDomains, p.HostsPerDomain)
				applyGroupElement(canon, work, hp, dp)
				canon.Canonicalize(work)
				if !markingsEqual(rep, work) {
					t.Fatalf("%dx%d state %d: orbit members canonicalize differently:\n%v\n%v",
						p.NumDomains, p.HostsPerDomain, id, rep, work)
				}
			}
		}
	}
}

// TestCanonicalizeLumpsChain is the quick reduction sanity check: the
// quotient chain must be strictly smaller than the full chain (the golden
// numerical-equivalence test lives in internal/exact).
func TestCanonicalizeLumpsChain(t *testing.T) {
	p := canonParams(2, 2, 1, 2)
	p.CorruptionMult = 5
	p.SystemSpreadRate = 0
	p.TotalFalseAlarmRate = 0
	p.AttackSplitMgr = 0
	m := mustBuild(t, p)
	full := fullChain(t, m, 1<<19)
	lumped, err := mc.Generate(m.SAN, mc.Options{MaxStates: 1 << 19, Canon: NewCanonicalizer(m)})
	if err != nil {
		t.Fatal(err)
	}
	if lumped.NumStates() >= full.NumStates() {
		t.Fatalf("lumping did not reduce the chain: %d >= %d", lumped.NumStates(), full.NumStates())
	}
	t.Logf("2x2: full %d states, lumped %d (%.1fx reduction)",
		full.NumStates(), lumped.NumStates(), float64(full.NumStates())/float64(lumped.NumStates()))
}

func markingsEqual(a, b []san.Marking) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---- fuzz ----------------------------------------------------------------

type fuzzCorpusEntry struct {
	model *Model
	canon *Canonicalizer
	chain *mc.CTMC
	err   error
}

var (
	fuzzCorpusMu sync.Mutex
	fuzzCorpus   map[int]*fuzzCorpusEntry
)

// fuzzConfigs are the topologies the fuzzer draws reachable markings from;
// kept tiny so the one-time chain generation stays fast.
func fuzzConfigs() []Params {
	small := canonParams(4, 2, 1, 2)
	canonTrim(&small)
	env := canonParams(2, 2, 1, 2)
	canonTrim(&env)
	env.PartitionRate = 0.1
	env.PartitionHealRate = 2
	env.RepairCrew = 1
	tall := canonParams(1, 4, 1, 1)
	tall.CorruptionMult = 5
	tall.SystemSpreadRate = 0
	tall.TotalFalseAlarmRate = 0
	tall.AttackSplitMgr = 0
	return []Params{small, env, tall}
}

func fuzzEntry(cfg int) *fuzzCorpusEntry {
	fuzzCorpusMu.Lock()
	defer fuzzCorpusMu.Unlock()
	if fuzzCorpus == nil {
		fuzzCorpus = make(map[int]*fuzzCorpusEntry)
	}
	if e, ok := fuzzCorpus[cfg]; ok {
		return e
	}
	e := &fuzzCorpusEntry{}
	m, err := Build(fuzzConfigs()[cfg])
	if err != nil {
		e.err = err
	} else {
		e.model = m
		e.canon = NewCanonicalizer(m)
		e.chain, e.err = mc.Generate(m.SAN, mc.Options{MaxStates: 1 << 18})
	}
	fuzzCorpus[cfg] = e
	return e
}

// FuzzCanonicalKey fuzzes the canonicalizer's contract: for any reachable
// marking (the fuzzer picks a topology and a state index) and any group
// element (decoded from the remaining bytes), Canonicalize is idempotent
// and maps the whole orbit to one representative with an identical intern
// key.
func FuzzCanonicalKey(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{1, 255, 17, 3, 9, 0, 4, 8, 15, 16, 23, 42})
	f.Add([]byte{2, 7, 1, 128, 33})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		e := fuzzEntry(int(data[0]) % len(fuzzConfigs()))
		if e.err != nil {
			t.Skip(e.err)
		}
		id := int(binary.LittleEndian.Uint32(data[1:5])) % e.chain.NumStates()
		p := e.model.Params
		r := rand.New(rand.NewSource(int64(hashBytes(data[5:]))))

		rep := append([]san.Marking(nil), e.chain.StateMarking(id)...)
		e.canon.Canonicalize(rep)
		again := append([]san.Marking(nil), rep...)
		e.canon.Canonicalize(again)
		if !markingsEqual(rep, again) {
			t.Fatalf("not idempotent: %v vs %v", rep, again)
		}
		repKey := san.AppendMarkingKey(nil, rep)

		work := append([]san.Marking(nil), e.chain.StateMarking(id)...)
		hp, dp := randomGroupElement(r, p.NumDomains, p.HostsPerDomain)
		applyGroupElement(e.canon, work, hp, dp)
		e.canon.Canonicalize(work)
		if !bytes.Equal(repKey, san.AppendMarkingKey(nil, work)) {
			t.Fatalf("orbit members produce different intern keys:\n%v\n%v", rep, work)
		}
	})
}

func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// partitionCorpus generates the lumped chain of a trimmed 4x2 topology
// with network partitions and a repair crew, so its reachable markings
// exercise every reference rewrite: replica slots on hosts and, in the
// states with a partition open, the partition pair.
func partitionCorpus(t *testing.T) (*Model, *Canonicalizer, *mc.CTMC) {
	t.Helper()
	p := canonParams(4, 2, 1, 2)
	canonTrim(&p)
	p.PartitionRate = 0.1
	p.PartitionHealRate = 2
	p.RepairCrew = 1
	m := mustBuild(t, p)
	canon := NewCanonicalizer(m)
	c, err := mc.Generate(m.SAN, mc.Options{MaxStates: 1 << 19, Canon: canon})
	if err != nil {
		t.Fatal(err)
	}
	return m, canon, c
}

// TestCanonicalizeAllocFree pins that Canonicalize, once its pooled
// scratch has grown, allocates nothing: it runs once per explored
// successor of lumped generation.
func TestCanonicalizeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	m, canon, c := partitionCorpus(t)
	var marking []san.Marking
	for id := 0; id < c.NumStates(); id++ {
		if c.StateMarking(id)[m.PartitionA.Index()] != 0 {
			marking = append([]san.Marking(nil), c.StateMarking(id)...)
			break
		}
	}
	if marking == nil {
		t.Fatal("no reachable state has a partition open")
	}
	hp, dp := randomGroupElement(rand.New(rand.NewSource(7)), 4, 2)
	applyGroupElement(canon, marking, hp, dp)
	work := append([]san.Marking(nil), marking...)
	canon.Canonicalize(work)
	if allocs := testing.AllocsPerRun(100, func() {
		copy(work, marking)
		canon.Canonicalize(work)
	}); allocs != 0 {
		t.Fatalf("Canonicalize allocates %v times per call, want 0", allocs)
	}
}

// TestCanonicalizeConcurrent exercises the documented concurrency
// contract directly (lumped generation calls Canonicalize from every
// worker): eight goroutines canonicalize group-permuted reachable
// markings and must reproduce the sequential representatives. Run it
// under -race (make race).
func TestCanonicalizeConcurrent(t *testing.T) {
	_, canon, c := partitionCorpus(t)
	r := rand.New(rand.NewSource(11))
	n := c.NumStates()
	inputs := make([][]san.Marking, n)
	want := make([][]san.Marking, n)
	for id := range inputs {
		inputs[id] = append([]san.Marking(nil), c.StateMarking(id)...)
		hp, dp := randomGroupElement(r, 4, 2)
		applyGroupElement(canon, inputs[id], hp, dp)
		want[id] = append([]san.Marking(nil), inputs[id]...)
		canon.Canonicalize(want[id])
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work := make([]san.Marking, len(inputs[0]))
			for k := 0; k < n; k++ {
				id := (k + w*n/goroutines) % n
				copy(work, inputs[id])
				canon.Canonicalize(work)
				if !markingsEqual(work, want[id]) {
					t.Errorf("goroutine %d, state %d: got %v, want %v", w, id, work, want[id])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	t.Logf("%d goroutines x %d markings", goroutines, n)
}
