package san

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ituaval/internal/rng"
)

// checkPermutePrefix resolves a free function that calls Permute(p, k) on
// n positions and writes the k positions it reads into places, and checks
// the prefix enumeration: every ordered prefix is visited exactly once,
// the multiplicities sum to n!, and every branch's probability has the
// bits of the product 1/n·1/(n-1)·…·1/2 taken in that order. It then
// checks that in simulation Permute(p, k) is ctx.Rand.Perm(p): the same
// permutation and the same stream state afterwards.
func checkPermutePrefix(t *testing.T, n, k int, seed uint64) {
	t.Helper()
	m := NewModel("permute")
	pos := make([]*Place, n)
	for i := range pos {
		pos[i] = m.Place(fmt.Sprintf("pos%d", i), 0)
	}
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	r := min(k, n)
	p := make([]int, n)
	perm := true
	fn := func(ctx *Context) {
		ctx.Permute(p, k)
		perm = perm && isPermutation(p)
		for i := 0; i < r; i++ {
			ctx.State.Set(pos[i], Marking(p[i]+1))
		}
	}
	want, fact := 1.0, 1
	for f := n; f >= 2; f-- {
		want *= 1 / float64(f)
		fact *= f
	}
	seen := make(map[string]bool)
	sum := 0
	err := NewResolver(m).Resolve(m.NewState(), nil, 0, fn, func(st *State, prob float64, mult int) error {
		key := string(AppendMarkingKey(nil, st.Markings()))
		if seen[key] {
			t.Errorf("n=%d k=%d: prefix %v visited twice", n, k, st.Markings())
		}
		seen[key] = true
		if math.Float64bits(prob) != math.Float64bits(want) {
			t.Errorf("n=%d k=%d: branch probability %v (%016x), want %v (%016x)",
				n, k, prob, math.Float64bits(prob), want, math.Float64bits(want))
		}
		sum += mult
		return nil
	})
	if err != nil {
		t.Fatalf("n=%d k=%d: %v", n, k, err)
	}
	if !perm {
		t.Errorf("n=%d k=%d: Permute left a non-permutation", n, k)
	}
	prefixes := 1
	for f := n; f > n-r; f-- {
		prefixes *= f
	}
	if len(seen) != prefixes {
		t.Errorf("n=%d k=%d: %d distinct prefixes, want n!/(n-k)! = %d", n, k, len(seen), prefixes)
	}
	if sum != fact {
		t.Errorf("n=%d k=%d: multiplicities sum to %d, want n! = %d", n, k, sum, fact)
	}

	ctx := Context{Rand: rng.New(seed)}
	ref := rng.New(seed)
	q := make([]int, n)
	ctx.Permute(p, k)
	ref.Perm(q)
	if fmt.Sprint(p) != fmt.Sprint(q) {
		t.Errorf("n=%d k=%d seed=%d: simulated Permute %v, Perm %v", n, k, seed, p, q)
	}
	if a, b := ctx.Rand.Uint64(), ref.Uint64(); a != b {
		t.Errorf("n=%d k=%d seed=%d: stream after Permute draws %x, after Perm %x", n, k, seed, a, b)
	}
}

func isPermutation(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// TestPermutePrefixEnumeration covers the prefix enumeration for every
// n ≤ 7 and k from 0 past n, that a folded multiplicity carries through an
// instantaneous activity resolved afterwards, and that a multiplicity
// past the int range fails the resolution.
func TestPermutePrefixEnumeration(t *testing.T) {
	for n := 0; n <= 7; n++ {
		for k := 0; k <= n+1; k++ {
			checkPermutePrefix(t, n, k, uint64(10*n+k))
		}
	}

	t.Run("settling", func(t *testing.T) {
		// shuffle permutes four positions and records the first; settle,
		// a two-case instantaneous activity, then resolves at the next
		// depth. Reading one position or all four must give the same
		// distribution bit for bit.
		const n = 4
		k := 0
		m := NewModel("fold")
		start := m.Place("start", 1)
		first := m.Place("first", 0)
		flag := m.Place("flag", 0)
		m.AddActivity(ActivityDef{
			Name: "shuffle", Kind: Instant,
			Enabled: func(s *State) bool { return s.Get(start) == 1 },
			Reads:   []*Place{start},
			Cases: []Case{{Prob: 1, Effect: func(ctx *Context) {
				var p [n]int
				ctx.Permute(p[:], k)
				ctx.State.Set(start, 0)
				ctx.State.Set(first, Marking(p[0]+1))
				ctx.State.Set(flag, 1)
			}}},
		})
		m.AddActivity(ActivityDef{
			Name: "settle", Kind: Instant,
			Enabled: func(s *State) bool { return s.Get(flag) == 1 },
			Reads:   []*Place{flag},
			Cases: []Case{
				{Prob: 0.3, Effect: func(ctx *Context) { ctx.State.Set(flag, 2) }},
				{Prob: 0.7, Effect: func(ctx *Context) { ctx.State.Set(flag, 3) }},
			},
		})
		if err := m.Finalize(); err != nil {
			t.Fatal(err)
		}
		resolve := func(read int) []Successor {
			k = read
			sucs, err := EnumerateStable(m, m.NewState())
			if err != nil {
				t.Fatal(err)
			}
			return sucs
		}
		full, prefix := resolve(n), resolve(1)
		if len(full) != 2*n || len(prefix) != len(full) {
			t.Fatalf("%d outcomes reading all positions, %d reading one; want %d", len(full), len(prefix), 2*n)
		}
		for i := range full {
			if full[i].Key != prefix[i].Key || math.Float64bits(full[i].Prob) != math.Float64bits(prefix[i].Prob) {
				t.Errorf("outcome %v: probability %v reading all positions, %v (%v) reading one",
					full[i].M, full[i].Prob, prefix[i].Prob, prefix[i].M)
			}
		}
	})

	t.Run("overflow", func(t *testing.T) {
		m := NewModel("overflow")
		m.Place("x", 0)
		if err := m.Finalize(); err != nil {
			t.Fatal(err)
		}
		var p [21]int
		fn := func(ctx *Context) { ctx.Permute(p[:], 0) }
		err := NewResolver(m).Resolve(m.NewState(), nil, 0, fn, func(*State, float64, int) error {
			t.Error("visited a branch of multiplicity 21!")
			return nil
		})
		if !errors.Is(err, errMultOverflow) {
			t.Fatalf("Permute over 21 positions reading none: err = %v, want %v", err, errMultOverflow)
		}
	})
}

// FuzzPermutePrefix checks the prefix enumeration's invariants (see
// checkPermutePrefix) for random n ≤ 8, k from 0 to n+1, and simulation
// seeds.
func FuzzPermutePrefix(f *testing.F) {
	f.Add(uint8(6), uint8(2), uint64(3))
	f.Add(uint8(8), uint8(0), uint64(1))
	f.Add(uint8(1), uint8(9), uint64(7))
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint8, seed uint64) {
		n := int(nRaw % 9)
		checkPermutePrefix(t, n, int(kRaw)%(n+2), seed)
	})
}
