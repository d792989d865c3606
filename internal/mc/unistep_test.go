package mc

import (
	"math"
	mrand "math/rand"
	"testing"
)

// stepChain is the shape of a random sparse chain for the step-kernel
// tests: n states, each receiving from up to maxIn random sources, a
// fraction of them receiving nothing, and optionally one hub state that
// receives from almost every other state (a row far longer than its
// chunk-mates, so its chunk is mostly padding).
type stepChain struct {
	n, maxIn  int
	emptyFrac float64
	hub       bool
}

// build draws the chain's row CSR as assemble leaves it (columns
// ascending, no self-loops, exit = the row's rates summed in column
// order) and slices it. The chain has no model: the kernel tests read only
// the generator arrays and the initial distribution.
func (sc stepChain) build(r *mrand.Rand) *CTMC {
	n := sc.n
	hub := -1
	if sc.hub {
		hub = r.Intn(n)
	}
	// out[src] lists src's targets; targets are visited ascending, so each
	// list comes out sorted.
	type entry struct {
		to   int32
		rate float64
	}
	out := make([][]entry, n)
	for i := 0; i < n; i++ {
		var srcs []int
		switch {
		case i == hub:
			for s := 0; s < n; s++ {
				if s != i && r.Float64() < 0.9 {
					srcs = append(srcs, s)
				}
			}
		case r.Float64() < sc.emptyFrac || n == 1:
		default:
			seen := make(map[int]bool)
			for k := r.Intn(sc.maxIn + 1); k > 0; k-- {
				if s := r.Intn(n); s != i && !seen[s] {
					seen[s] = true
					srcs = append(srcs, s)
				}
			}
		}
		for _, s := range srcs {
			out[s] = append(out[s], entry{int32(i), math.Exp(2 * r.NormFloat64())})
		}
	}
	c := &CTMC{n: n, rowPtr: make([]int32, n+1), exit: make([]float64, n),
		initDist: map[int]float64{0: 1}, workers: 1}
	for s, row := range out {
		for _, e := range row {
			c.cols = append(c.cols, e.to)
			c.rates = append(c.rates, e.rate)
			c.exit[s] += e.rate
		}
		c.rowPtr[s+1] = int32(len(c.cols))
	}
	c.slice()
	return c
}

// absorbingMask returns nil, a random subset of the states, or all of
// them, for mode 0, 1 and 2.
func absorbingMask(r *mrand.Rand, n, mode int) []bool {
	if mode == 0 {
		return nil
	}
	bad := make([]bool, n)
	for i := range bad {
		bad[i] = mode == 2 || r.Float64() < 0.3
	}
	return bad
}

// referenceStep is the transposed-CSR step the sliced kernel must match
// bit for bit: row i adds stay[i]·v[i], then prob·v[src] for its
// incoming transitions with sources ascending.
func referenceStep(c *CTMC, bad []bool, lambda float64, v []float64) []float64 {
	n := c.n
	inPtr := make([]int32, n+1)
	for _, col := range c.cols {
		inPtr[col+1]++
	}
	for i := 0; i < n; i++ {
		inPtr[i+1] += inPtr[i]
	}
	inSrc := make([]int32, len(c.cols))
	inRate := make([]float64, len(c.cols))
	cursor := append([]int32(nil), inPtr[:n]...)
	for i := 0; i < n; i++ {
		for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
			col := c.cols[k]
			inSrc[cursor[col]] = int32(i)
			inRate[cursor[col]] = c.rates[k]
			cursor[col]++
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		stay := 1 - c.exit[i]/lambda
		if bad != nil && bad[i] {
			stay = 1
		}
		acc := stay * v[i]
		for k := inPtr[i]; k < inPtr[i+1]; k++ {
			p := inRate[k] / lambda
			if bad != nil && bad[inSrc[k]] {
				p = 0
			}
			acc += p * v[inSrc[k]]
		}
		out[i] = acc
	}
	return out
}

// checkStep applies two steps of c's operator to a random non-negative
// vector, sequentially and over forced 2- and 3-block pools, and compares
// every entry's bits with the reference.
func checkStep(t *testing.T, r *mrand.Rand, c *CTMC, bad []bool) {
	t.Helper()
	lambda := c.uniRate(bad)
	v0 := make([]float64, c.n)
	for i := range v0 {
		if r.Float64() < 0.8 {
			v0[i] = r.Float64()
		}
	}
	want1 := referenceStep(c, bad, lambda, v0)
	want2 := referenceStep(c, bad, lambda, want1)
	for _, blocks := range []int{1, 2, 3} {
		op := c.uniOperator(bad, lambda)
		if blocks > 1 {
			op.makeBlocks(blocks)
		}
		got1, got2 := make([]float64, c.n), make([]float64, c.n)
		op.apply(v0, got1)
		op.apply(got1, got2)
		op.stop()
		for i := range want1 {
			if math.Float64bits(got1[i]) != math.Float64bits(want1[i]) ||
				math.Float64bits(got2[i]) != math.Float64bits(want2[i]) {
				t.Fatalf("n=%d blocks=%d row %d: step 1 %v (want %v), step 2 %v (want %v)",
					c.n, blocks, i, got1[i], want1[i], got2[i], want2[i])
			}
		}
	}
}

// TestUniStepMatchesReference: on random sparse chains of every size
// class mod 4 (and below one chunk), with empty rows, a hub row far longer
// than its chunk-mates, and no, some or all states absorbing, the sliced
// step gives the reference step's bits sequentially and over 2- and
// 3-block pools.
func TestUniStepMatchesReference(t *testing.T) {
	r := mrand.New(mrand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 13, 64, 257, 1026} {
		for _, sc := range []stepChain{
			{n: n, maxIn: 3},
			{n: n, maxIn: 12, emptyFrac: 0.3},
			{n: n, maxIn: 2, emptyFrac: 0.5, hub: true},
		} {
			c := sc.build(r)
			for mode := 0; mode < 3; mode++ {
				checkStep(t, r, c, absorbingMask(r, n, mode))
			}
		}
	}
}

// FuzzUniStep runs the reference comparison on fuzzed chain sizes, row
// lengths, hub rows and absorbing masks.
func FuzzUniStep(f *testing.F) {
	f.Add(int64(1), uint16(7), uint8(3), uint8(0), false, uint8(0))
	f.Add(int64(2), uint16(1), uint8(0), uint8(0), false, uint8(2))
	f.Add(int64(3), uint16(130), uint8(9), uint8(128), true, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, maxIn, empty uint8, hub bool, mode uint8) {
		sc := stepChain{n: 1 + int(n)%600, maxIn: int(maxIn) % 32, emptyFrac: float64(empty) / 255, hub: hub}
		r := mrand.New(mrand.NewSource(seed))
		c := sc.build(r)
		checkStep(t, r, c, absorbingMask(r, sc.n, int(mode)%3))
	})
}
