package san

import "math"

// AddRepeated returns what sum becomes after n sequential additions
// sum += x, bit for bit, in time logarithmic in n rather than linear. It
// is how a consumer of a Resolver branch of multiplicity n adds the
// branch's probability once per full branch it stands for: the sequence
// of additions a full enumeration would make, without an n-step loop,
// which a placement folding 120⁸ full permutations into one branch could
// never finish.
//
// Within one binade of the running sum every representable value is a
// multiple of the binade's ulp u, so an addition that stays inside it
// rounds x to a multiple of u and adds that fixed increment (under a tie,
// the rounding to even fixes the increment once the sum is an even
// multiple of u). The steps inside a binade are therefore taken all at
// once in integer arithmetic, and only the steps that leave a binade, or
// start from a sum that is not a normal float, are done one by one.
func AddRepeated(sum, x float64, n int) float64 {
	for n > 0 {
		next := sum + x
		if next == sum || math.IsInf(next, 0) || math.IsNaN(next) {
			return next // every further addition leaves the sum as it is
		}
		if !(sum >= 0x1p-1022) || x < 0 {
			sum, n = next, n-1
			continue
		}
		// sum = s·u with u = 2^(exp-53) and s an integer in [2^52, 2^53);
		// q is x in units of u, exactly (a power-of-two scaling of an x
		// that is not negligible beside sum).
		_, exp := math.Frexp(sum)
		s := int64(math.Ldexp(sum, 53-exp))
		q := math.Ldexp(x, 53-exp)
		if q >= 0x1p53 {
			sum, n = next, n-1
			continue
		}
		m := int64(q)
		var d int64 // the increment, in units of u, of the step from s
		switch f := q - float64(m); {
		case f < 0.5:
			d = m
		case f > 0.5:
			d = m + 1
		default:
			// A tie rounds s+q to the even neighbour, so every result is
			// even, and from an even s the increment is m or m+1,
			// whichever is even.
			if s%2 != 0 {
				sum, n = next, n-1
				continue
			}
			d = m + m%2
		}
		// Steps that keep the sum inside the binade: s + j·d < 2^53.
		j := (1<<53 - 1 - s) / d
		if j == 0 {
			sum, n = next, n-1
			continue
		}
		j = min(j, int64(n))
		sum, n = math.Ldexp(float64(s+j*d), exp-53), n-int(j)
	}
	return sum
}
