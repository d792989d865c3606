// Package rng provides the random-variate substrate for the simulator: a
// fast, deterministic, splittable pseudo-random number generator and the two
// firing-time distributions the models use, exponential and deterministic.
//
// Streams are cheap value types. Every simulation replication derives its
// own statistically independent stream from a root seed, so replicated runs
// are reproducible and embarrassingly parallel.
package rng

import "math"

// splitmix64 is used for seeding and stream derivation. It is the standard
// seed-scrambling generator recommended by the xoshiro authors.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream is a xoshiro256** pseudo-random number generator. The zero value
// is not usable; construct streams with New or Derive.
type Stream struct {
	s0, s1, s2, s3 uint64
}

// New returns a stream seeded from seed. Different seeds give streams that
// are statistically independent for simulation purposes.
func New(seed uint64) *Stream {
	st := &Stream{}
	st.Reseed(seed)
	return st
}

// Reseed reinitializes the stream in place from seed.
func (s *Stream) Reseed(seed uint64) {
	s.s0 = splitmix64(seed)
	s.s1 = splitmix64(s.s0)
	s.s2 = splitmix64(s.s1)
	s.s3 = splitmix64(s.s2)
	// xoshiro256** requires a nonzero state; splitmix64 of any seed chain
	// yields all-zero with probability ~2^-256, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
}

// Derive returns a new stream independent of s, identified by id. Deriving
// the same id from the same root stream always yields the same stream, which
// gives per-replication reproducibility regardless of scheduling order.
func (s *Stream) Derive(id uint64) *Stream {
	// Mix the root state with the id through splitmix64 rather than
	// consuming numbers from s, so derivation does not perturb s.
	base := s.s0 ^ rotl(s.s2, 17)
	return New(splitmix64(base ^ (id+1)*0x9e3779b97f4a7c15))
}

// roleSalt separates the Role derivation domain from Derive, so that
// Role(k) and Derive(k) of the same stream are independent.
const roleSalt = 0xd1342543de82ef95

// Role returns the substream of s for the stochastic role identified by k.
// Roles partition a replication's randomness by purpose (one activity's
// firing delays, one host's detection trials, a placement draw), which is
// what makes common random numbers work: two model variants that derive
// the same role from the same replication stream consume the same uniforms
// for the same purpose, no matter how their event interleavings differ.
// Like Derive, Role does not perturb s.
func (s *Stream) Role(k uint64) *Stream {
	base := s.s0 ^ rotl(s.s2, 17)
	return New(splitmix64(base ^ roleSalt ^ (k+1)*0x9e3779b97f4a7c15))
}

// RoleNamed is Role(RoleKey(name)).
func (s *Stream) RoleNamed(name string) *Stream { return s.Role(RoleKey(name)) }

// RoleKey hashes a stable role name (usually an activity or entity name)
// to a role id for Role, using FNV-1a. Names are model-stable across
// configuration variants, which is exactly the property common-random-number
// pairing needs.
func RoleKey(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (s *Stream) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// OpenFloat64 returns a uniform value in (0, 1), never exactly zero, which
// is required by inverse-transform samplers that take a logarithm.
func (s *Stream) OpenFloat64() float64 {
	for {
		if u := s.Float64(); u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Expo returns an exponential variate with the given rate. It panics if
// rate is not positive (NaN included).
func (s *Stream) Expo(rate float64) float64 {
	if !(rate > 0) {
		panic("rng: Expo with non-positive rate")
	}
	return -math.Log(s.OpenFloat64()) / rate
}

// Perm fills p with a uniform random permutation of [0, len(p)).
func (s *Stream) Perm(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Choose returns a uniformly chosen element index of a set of size n
// represented by the caller, equivalent to Intn but named for readability at
// call sites that implement "equally likely to fire first" race semantics.
func (s *Stream) Choose(n int) int { return s.Intn(n) }

// Race returns the index of the winner of a race among n equally weighted
// contenders: ⌊u·n⌋ for one Float64 draw u, the draw and the result of
// Category over n equal weights. n must be positive.
func (s *Stream) Race(n int) int { return int(s.Float64() * float64(n)) }

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Category samples an index from the discrete distribution given by weights
// (which need not be normalized). It panics if the total weight is not
// positive or any weight is negative.
func (s *Stream) Category(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: negative or NaN category weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: non-positive total category weight")
	}
	u := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1 // float round-off: return the last positive-weight index
}
