package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with the same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical draws", same)
	}
}

func TestDeriveIndependentAndStable(t *testing.T) {
	root := New(7)
	d1 := root.Derive(3)
	d2 := root.Derive(3)
	if d1.Uint64() != d2.Uint64() {
		t.Fatal("Derive with the same id is not reproducible")
	}
	d3 := root.Derive(4)
	if d3.Uint64() == root.Derive(3).Uint64() {
		t.Fatal("Derive with different ids produced the same first draw")
	}
	// Derivation must not advance the root stream.
	before := *root
	root.Derive(99)
	if before != *root {
		t.Fatal("Derive mutated the parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	for i := 0; i < 100000; i++ {
		u := s.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", u)
		}
	}
}

func TestOpenFloat64Positive(t *testing.T) {
	s := New(13)
	for i := 0; i < 100000; i++ {
		if u := s.OpenFloat64(); u <= 0 || u >= 1 {
			t.Fatalf("OpenFloat64 out of (0,1): %v", u)
		}
	}
}

func TestUniformityChiSquare(t *testing.T) {
	// 16 buckets, 160k draws: chi-square with 15 dof, 99.9% critical
	// value is 37.70.
	s := New(99)
	const buckets, n = 16, 160000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[int(s.Float64()*buckets)]++
	}
	expected := float64(n) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 37.70 {
		t.Fatalf("uniformity chi-square too high: %v", chi2)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	for n := 1; n <= 20; n++ {
		for i := 0; i < 2000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) returned %d", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(21)
	const n, draws = 7, 70000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	expected := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Fatalf("Intn bucket %d count %d far from expected %v", i, c, expected)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPerm(t *testing.T) {
	s := New(8)
	p := make([]int, 10)
	s.Perm(p)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	s := New(123)
	const n, draws = 5, 50000
	counts := make([]int, n)
	p := make([]int, n)
	for i := 0; i < draws; i++ {
		s.Perm(p)
		counts[p[0]]++
	}
	expected := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Fatalf("Perm first-element bucket %d count %d far from %v", i, c, expected)
		}
	}
}

func TestCategory(t *testing.T) {
	s := New(77)
	weights := []float64{0.8, 0.15, 0.05}
	const draws = 200000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[s.Category(weights)]++
	}
	for i, w := range weights {
		got := float64(counts[i]) / draws
		if math.Abs(got-w) > 0.01 {
			t.Fatalf("Category bucket %d frequency %v, want ~%v", i, got, w)
		}
	}
}

func TestCategoryZeroWeightNeverChosen(t *testing.T) {
	s := New(31)
	weights := []float64{0, 1, 0}
	for i := 0; i < 10000; i++ {
		if got := s.Category(weights); got != 1 {
			t.Fatalf("Category chose zero-weight bucket %d", got)
		}
	}
}

func TestCategoryPanics(t *testing.T) {
	for _, weights := range [][]float64{{}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Category(%v) did not panic", weights)
				}
			}()
			New(1).Category(weights)
		}()
	}
}

// TestRaceMatchesEqualCategory pins Race to Category over equal weights:
// the same draw and the same index.
func TestRaceMatchesEqualCategory(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 8, 12, 100, 1000, 1<<20 + 3} {
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		a, b := New(uint64(n)), New(uint64(n))
		for i := 0; i < 2000; i++ {
			if got, want := a.Race(n), b.Category(ones); got != want {
				t.Fatalf("n=%d draw %d: Race %d, Category %d", n, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: streams diverged", n)
		}
	}
	// The largest Float64 draw still maps below n, so Race needs no clamp.
	umax := float64(1<<53-1) / (1 << 53)
	for n := 1; n <= 1<<16; n++ {
		if got := int(umax * float64(n)); got != n-1 {
			t.Fatalf("n=%d: largest draw maps to %d", n, got)
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	s := New(55)
	const p, draws = 0.3, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if s.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) frequency %v", p, got)
	}
}

func TestExpoMoments(t *testing.T) {
	s := New(3)
	const rate, n = 2.5, 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := s.Expo(rate)
		if x < 0 {
			t.Fatalf("negative exponential variate %v", x)
		}
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("exponential mean %v, want %v", mean, 1/rate)
	}
	if math.Abs(variance-1/(rate*rate)) > 0.02 {
		t.Fatalf("exponential variance %v, want %v", variance, 1/(rate*rate))
	}
}

func TestExpoPanicsOnNonPositiveRate(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Expo(%v) did not panic", rate)
				}
			}()
			New(1).Expo(rate)
		}()
	}
}

// quickStream gives property tests a stream derived from the quick seed.
func quickStream(seed uint64) *Stream { return New(seed) }

func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		s := quickStream(seed)
		v := s.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExpoNonNegative(t *testing.T) {
	f := func(seed uint64, rateRaw uint16) bool {
		rate := float64(rateRaw%1000)/100 + 0.01
		return quickStream(seed).Expo(rate) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFloat64HalfOpen(t *testing.T) {
	f := func(seed uint64) bool {
		u := quickStream(seed).Float64()
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKnownAnswers pins exact stream outputs, so any change to seeding,
// derivation, role keys or the xoshiro step shows up as a value mismatch
// rather than only as a statistical drift.
func TestKnownAnswers(t *testing.T) {
	words := []struct {
		name string
		s    *Stream
		want [8]uint64
	}{
		{"New(0)", New(0), [8]uint64{
			0x1a70a846bd9cc2a9, 0x6a0ef250cd2b9e80, 0x61325a7589c2ff27, 0x21ccf8536a2bb70a,
			0x819e29b2912a393f, 0xaf81c73f22f06ce3, 0x2a6793bf38726a7a, 0xf2cd492c44efac0d}},
		{"New(1)", New(1), [8]uint64{
			0xc5883e370b0926c3, 0x021b74b80f71f81c, 0x268df06749e5c8ce, 0xe052757d667afef2,
			0xa8e830354035114a, 0xaf461a38b67a3827, 0xf61fd80e91cefd17, 0xa6563758ec4d868f}},
		{"New(2^64-1)", New(math.MaxUint64), [8]uint64{
			0x8defbd3346f3593a, 0x41a928faae78060c, 0xdde9bccaf1cd0233, 0x939e26ae8c3a89e7,
			0x0a23acb32ddcae13, 0xfdf2b0da7b4ba21a, 0x367155597e0be806, 0xb0d11c2e71d6e0ef}},
		{"New(1).Derive(7)", New(1).Derive(7), [8]uint64{
			0x5f26022e0b5aac75, 0x55d12c30f6116161, 0x54a3ec4ca4b3283f, 0xfbd3d81f3933e466,
			0xef5fb7430c0fd87b, 0x101ed3b9cb993e39, 0xd5514fdb2a44e233, 0x41af2acfd82c71f7}},
		{`New(1).RoleNamed("x")`, New(1).RoleNamed("x"), [8]uint64{
			0x6927d6305d1104d6, 0x394602bef0e5bb8c, 0xf6f10035c3d527a0, 0xadf762d4f0b5db5b,
			0x651bb99092db3ed0, 0x3932d7b7947ec047, 0xd805e57d41c08979, 0x4651288f38b519e5}},
	}
	for _, c := range words {
		for i, w := range c.want {
			if got := c.s.Uint64(); got != w {
				t.Errorf("%s draw %d = %#016x, want %#016x", c.name, i, got, w)
			}
		}
	}

	s := New(3)
	for i, w := range []float64{0.10464878315042825, 0.430246032972076, 0.880857171104062, 0.5135622424622591} {
		if got := s.Float64(); got != w {
			t.Errorf("New(3) Float64 draw %d = %v, want %v", i, got, w)
		}
	}
	for i, w := range []float64{1.1735770722263434, 0.2201824015731963, 0.5697474885843257, 0.2916533576921032} {
		if got := s.Expo(2); got != w {
			t.Errorf("New(3) Expo(2) draw %d = %v, want %v", i, got, w)
		}
	}
}
