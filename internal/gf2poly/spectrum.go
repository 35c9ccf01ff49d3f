package gf2poly

import (
	"fmt"
	"math"
)

// This file computes the low tail of a CRC generator's weight spectrum —
// the number of weight-2 and weight-3 error polynomials of a given
// message length the CRC fails to detect — plus the classical burst
// coverage.  These are the analytic inputs to the polynomial census: on
// a binary symmetric channel with small flip probability p, P_ud is
// dominated by A2·p² + A3·p³ where A2/A3 are exactly the counts below,
// and the 5G NR selection papers rank candidates by where those counts
// first become nonzero (the Hamming-distance profile).

// modulus is a generator of degree 1..64 packed for word arithmetic:
// residues mod g are words below 2^w, and low is g minus its x^w term.
type modulus struct {
	w    uint
	low  uint64
	mask uint64 // 2^w − 1
}

func newModulus(g Poly, fn string) modulus {
	w := g.Degree()
	if w < 1 || w > 64 {
		panic(fmt.Sprintf("gf2poly: %s needs degree 1..64, got %d", fn, w))
	}
	m := modulus{w: uint(w), low: g.w[0], mask: 1<<uint(w) - 1}
	if w < 64 {
		m.low &^= 1 << uint(w)
	}
	return m
}

// mulX returns r·x mod g: shift, and reduce by g if x^w appeared.
func (m modulus) mulX(r uint64) uint64 {
	top := r >> (m.w - 1)
	r = r << 1 & m.mask
	if top != 0 {
		r ^= m.low
	}
	return r
}

// mul returns a·b mod g by Horner's rule over b's bits, high to low.
func (m modulus) mul(a, b uint64) uint64 {
	var acc uint64
	for i := int(m.w) - 1; i >= 0; i-- {
		acc = m.mulX(acc)
		if b>>uint(i)&1 != 0 {
			acc ^= a
		}
	}
	return acc
}

// XPowerResidues returns x^0, x^1, …, x^(n−1) reduced mod g, each packed
// into a uint64 (bit i = coefficient of x^i).  It panics if g's degree
// is outside 1..64.  An error polynomial Σ x^i is undetected exactly
// when the XOR of the corresponding residues is zero, so this table
// turns spectrum questions into word operations.
func XPowerResidues(g Poly, n int) []uint64 {
	m := newModulus(g, "XPowerResidues")
	out := make([]uint64, n)
	r := uint64(1) // x^0 mod g, already reduced since w ≥ 1
	for i := range out {
		out[i] = r
		r = m.mulX(r)
	}
	return out
}

// maxBabySteps caps the baby-step table at 2^20 entries, so a limit
// beyond 2^40 costs more giant steps instead of more memory.
const maxBabySteps = 1 << 20

// XOrder returns the multiplicative order of x mod g — the smallest
// e ≥ 1 with x^e ≡ 1 (mod g) — for generators of degree 1..64, or 0 if
// x is not invertible mod g (g(0) = 0) or the order exceeds limit.
//
// It runs baby-step giant-step in O(√limit) word operations.  The units
// mod g number at most 2^w − 1, so the limit is first clamped to that.
// Baby steps tabulate x^j for j < m = ⌈√limit⌉; an x^j = 1 there is the
// order.  Otherwise those residues are distinct, and the giant steps
// y_i = x^(i·m) meet the table at x^j exactly when x^(i·m − j) = 1.  The
// windows ((i−1)m, im] are disjoint and ascending, so the first meeting
// gives the smallest order.
func XOrder(g Poly, limit uint64) uint64 {
	m := newModulus(g, "XOrder")
	if !g.Bit(0) {
		return 0
	}
	limit = min(limit, m.mask)
	if limit == 0 {
		return 0
	}
	steps := uint64(maxBabySteps)
	if limit < 1<<40 {
		steps = ceilSqrt(limit)
	}
	baby := make(map[uint64]uint64, steps)
	r := uint64(1)
	for j := uint64(0); j < steps; j++ {
		if r == 1 && j > 0 {
			return j
		}
		baby[r] = j
		r = m.mulX(r)
	}
	// r = x^steps; walk y = x^(i·steps) until a window passes limit.
	giants := limit / steps
	if limit%steps != 0 {
		giants++
	}
	y := r
	for i := uint64(1); i <= giants; i++ {
		if j, ok := baby[y]; ok {
			if e := i*steps - j; e <= limit {
				return e
			}
			return 0
		}
		y = m.mul(y, r)
	}
	return 0
}

// ceilSqrt returns ⌈√n⌉ for n < 2^40.
func ceilSqrt(n uint64) uint64 {
	s := uint64(math.Sqrt(float64(n)))
	for s*s < n {
		s++
	}
	for s > 0 && (s-1)*(s-1) >= n {
		s--
	}
	return s
}

// UndetectedWeight2 returns A2: the number of weight-2 error polynomials
// spanning a message of nBits bits (bit positions 0..nBits−1) that a CRC
// with generator g fails to detect.  A pair {i, j} is undetected iff
// x^i + x^j ≡ 0 (mod g), i.e. the two positions share a residue.
func UndetectedWeight2(g Poly, nBits int) uint64 {
	res := XPowerResidues(g, nBits)
	counts := make(map[uint64]uint64, nBits)
	for _, r := range res {
		counts[r]++
	}
	var a2 uint64
	for _, c := range counts {
		a2 += c * (c - 1) / 2
	}
	return a2
}

// UndetectedWeight3 returns A3: the number of weight-3 error polynomials
// over nBits bit positions that g (degree 1..64) fails to detect —
// triples i < j < k with x^i + x^j + x^k ≡ 0 (mod g).
//
// Write g = x^s·h with h(0) = 1, and a = j − i, b = k − i.  Since
// 1 + x^a + x^b is prime to x, g divides x^i·(1 + x^a + x^b) exactly
// when i ≥ s and h | 1 + x^a + x^b, and each such (a, b) fits
// max(0, n − b − s) starting positions i.  So
//
//	A3 = Σ_{0<a<b<n} [x^a ≡ 1 + x^b (mod h)] · max(0, n − b − s),
//
// one pass over b with a count of the residues x^a, a < b: O(n).  A pure
// power g = x^s leaves h = 1, where every triple with i ≥ s is
// undetected: A3 = C(n − s, 3).
func UndetectedWeight3(g Poly, nBits int) uint64 {
	newModulus(g, "UndetectedWeight3") // panics outside degree 1..64
	s := 0
	for !g.Bit(s) {
		s++
	}
	if s == g.Degree() {
		if k := uint64(max(nBits-s, 0)); k >= 3 {
			return k * (k - 1) * (k - 2) / 6
		}
		return 0
	}
	h, _ := g.DivMod(Monomial(s))
	live := nBits - s // b < live: some start i ≥ s fits
	if live < 3 {
		return 0
	}
	res := XPowerResidues(h, live)
	seen := make(map[uint64]uint64, live)
	var a3 uint64
	for b := 2; b < live; b++ {
		seen[res[b-1]]++
		a3 += seen[res[b]^1] * uint64(live-b)
	}
	return a3
}

// UndetectedBurstFraction returns the fraction of burst errors of exact
// span b bits (first and last bit of the span flipped, interior bits
// arbitrary) that a degree-w generator with a nonzero constant term
// fails to detect: 0 for b ≤ w, 2^−(w−1) at b = w+1 (the burst is
// undetected only when its interior matches a shift of g), and 2^−w
// beyond.  This is the classical result §2 of the paper quotes as
// "detects all bursts shorter than the CRC width".
func UndetectedBurstFraction(g Poly, b int) float64 {
	w := g.Degree()
	if w < 1 || !g.Bit(0) {
		panic("gf2poly: burst coverage needs a generator with x^0 and degree ≥ 1")
	}
	switch {
	case b <= w:
		return 0
	case b == w+1:
		return math.Ldexp(1, -(w - 1))
	default:
		return math.Ldexp(1, -w)
	}
}
