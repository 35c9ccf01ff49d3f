package dist

import "math/bits"

// PMF is a probability mass function over ℤ/M — the residue arithmetic
// in which the paper's checksum distributions live.  Normalized
// ones-complement 16-bit sums form ℤ/65535 (0x0000 and 0xFFFF are the
// same residue), each Fletcher component lives in ℤ/255 or ℤ/256, so M
// is a parameter.
//
// A PMF built from counts (FromHistogram, and Convolve of two such) is
// exact: P[c] is an integer numerator over a common denominator den,
// rounded to float64 once.  A numerator never exceeds den.  Below
// storedDen, P[c]·den rounds back to the numerator, so only wider PMFs
// store them: num, and numHi with the high words (nil while those are
// all zero).
type PMF struct {
	M int
	P []float64

	exact      bool
	den        u128
	num, numHi []uint64
}

// storedDen is the least denominator whose PMF stores its numerators.
// Below it, a numerator n ≤ den < 2^51 has P = n/den·(1+δ) and
// P·den = n·(1+δ)(1+δ′) with |δ|, |δ′| ≤ 2^-53, off from n by less
// than 1/2, so rounding recovers n.
const storedDen = 1 << 51

// NewPMF returns the all-zero mass function over ℤ/m (not a valid
// distribution until filled).  It carries no exact form, so Convolve
// rejects it.
func NewPMF(m int) PMF {
	if m < 1 {
		panic("dist: PMF modulus must be positive")
	}
	return PMF{M: m, P: make([]float64, m)}
}

// FromHistogram converts a 16-bit checksum histogram into a PMF over
// ℤ/65535 (the normalized ones-complement residues).  Bucket 0xFFFF is
// empty by construction.
func FromHistogram(h *Histogram) PMF {
	return fromCounts(h.counts[:65535])
}

// fromCounts returns the exact PMF with P[c] = counts[c]/Σcounts over
// ℤ/len(counts).  All-zero counts give the all-zero PMF.
func fromCounts(counts []uint64) PMF {
	p := NewPMF(len(counts))
	p.exact = true
	for _, c := range counts {
		var carry uint64
		p.den.lo, carry = bits.Add64(p.den.lo, c, 0)
		p.den.hi += carry
	}
	for v, c := range counts {
		p.P[v] = ratio(u128{0, c}, p.den)
	}
	if !p.den.less(u128{0, storedDen}) {
		p.num = append([]uint64(nil), counts...)
	}
	return p
}

// Convolve returns the distribution of X+Y mod M for independent X∼p,
// Y∼q — one step of the §4.4 prediction equation
//
//	P_k(c) = Σ_x P_{k-1}(c−x)·P_1(x)
//
// computed exactly on the integer numerators and rounded once per bin.
// Modulo each prime the output denominator needs, one after another, a
// number-theoretic transform convolves the numerators (see cyclic);
// CRT then recovers each bin.  It panics if the moduli differ, if
// either PMF has no exact form (NewPMF), or if the output denominator
// reaches the primes' product.
func (p PMF) Convolve(q PMF) PMF {
	if p.M != q.M {
		panic("dist: Convolve modulus mismatch")
	}
	if !p.exact || !q.exact {
		panic("dist: Convolve needs exact numerators (a PMF from FromHistogram or Convolve)")
	}
	den, ok := p.den.mul(q.den)
	primes := 1
	for ok && primes <= len(nttPrimes) && !den.less(primeProduct(primes)) {
		primes++
	}
	if !ok || primes > len(nttPrimes) {
		panic("dist: Convolve denominator exceeds the exact bound (product of the NTT primes, about 2^124)")
	}
	m := p.M
	l := max(2, 1<<bits.Len(uint(m-1))) // a power of two ≥ m: n = 2l ≥ 2m−1
	if 2*l > 1<<nttMaxLog {
		panic("dist: Convolve modulus too large for the NTT primes")
	}
	a := make([]uint64, 2*l/nttSubtrees)
	b := a
	if self := &p.P[0] == &q.P[0]; !self {
		b = make([]uint64, len(a))
	}
	z := make([]uint64, len(a)/2)
	num, hi := make([]uint64, m), []uint64(nil)
	for i, pr := range nttPrimes[:primes] {
		mt := newMont(pr.p)
		mt.roots(z, pr.g)
		if i == 0 {
			mt.cyclic(num, &p, &q, a, b, z, pr.g)
			continue
		}
		hi = make([]uint64, m)
		mt.cyclic(hi, &p, &q, a, b, z, pr.g)
		// Garner: x = r₀ + p₀·((r₁ − r₀)·p₀⁻¹ mod p₁), the unique
		// x < p₀·p₁ with those residues.
		p0 := nttPrimes[0].p
		inv := mt.pow(mt.toMont(p0%pr.p), pr.p-2) // p₀⁻¹, Montgomery form
		for c, r1 := range hi {
			r0 := num[c]
			t := mt.mul(mt.sub(r1, r0%pr.p), inv)
			h, lo := bits.Mul64(p0, t)
			lo, carry := bits.Add64(lo, r0, 0)
			num[c], hi[c] = lo, h+carry
		}
	}
	out := PMF{M: m, P: make([]float64, m), exact: true, den: den}
	for c := range out.P {
		n := u128{0, num[c]}
		if den.hi != 0 { // else every n ≤ den < 2^64
			n.hi = hi[c]
		}
		out.P[c] = ratio(n, den)
	}
	if !den.less(u128{0, storedDen}) {
		out.num = num
		if den.hi != 0 {
			out.numHi = hi
		}
	}
	return out
}

// primeProduct returns the product of the first k NTT primes.
func primeProduct(k int) u128 {
	x := u128{0, 1}
	for _, pr := range nttPrimes[:k] {
		x, _ = x.mul(u128{0, pr.p})
	}
	return x
}

// SelfMatch returns Σp² — the probability two independent draws from p
// are equal.  This is the "Predicted" column of Table 4 when p is the
// k-cell convolution of the measured single-cell distribution.
func (p PMF) SelfMatch() float64 {
	var s float64
	for _, v := range p.P {
		s += v * v
	}
	return s
}
