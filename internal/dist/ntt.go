package dist

import (
	"math"
	"math/bits"
)

// The exact convolution behind PMF.Convolve: a number-theoretic
// transform (Pollard, "The fast Fourier transform in a finite field",
// Math. Comp. 25, 1971) over ℤ/p for NTT-friendly primes p, the
// coefficients recovered by CRT and each bin rounded to float64 once.

// nttPrime is a prime p = c·2^40 + 1 below 2^62 and a primitive root g
// of ℤ/p: ℤ/p has a root of unity of every order 2^j ≤ 2^40.
type nttPrime struct{ p, g uint64 }

// nttPrimes are the moduli Convolve uses, in order.  It takes as many
// as the output denominator needs; their product (≈ 2^124) bounds the
// widest denominator the exact path carries.
var nttPrimes = [...]nttPrime{
	{4611546380450660353, 5}, // 4194177·2^40 + 1
	{4611524390218104833, 3}, // 4194157·2^40 + 1
}

// nttMaxLog is log2 of the longest transform the primes carry.
const nttMaxLog = 40

// u128 is an unsigned 128-bit integer: exact numerators and
// denominators of convolved PMFs pass 2^64 (Table 4's k = 5 over
// Stanford /u1 is about 2^80 at full scale).
type u128 struct{ hi, lo uint64 }

// mul returns x·y and whether it fits in 128 bits.
func (x u128) mul(y u128) (u128, bool) {
	if x.hi != 0 && y.hi != 0 {
		return u128{}, false
	}
	hi, lo := bits.Mul64(x.lo, y.lo)
	h1, l1 := bits.Mul64(x.hi, y.lo)
	h2, l2 := bits.Mul64(x.lo, y.hi)
	hi, c1 := bits.Add64(hi, l1, 0)
	hi, c2 := bits.Add64(hi, l2, 0)
	return u128{hi, lo}, h1|h2|c1|c2 == 0
}

// less reports whether x < y.
func (x u128) less(y u128) bool {
	return x.hi < y.hi || x.hi == y.hi && x.lo < y.lo
}

// shl returns x << s for 0 ≤ s < 128.
func (x u128) shl(s uint) u128 {
	if s >= 64 {
		return u128{x.lo << (s - 64), 0}
	}
	return u128{x.hi<<s | x.lo>>(64-s), x.lo << s}
}

// leadingZeros returns the number of leading zero bits of x.
func (x u128) leadingZeros() uint {
	if x.hi != 0 {
		return uint(bits.LeadingZeros64(x.hi))
	}
	return 64 + uint(bits.LeadingZeros64(x.lo))
}

// ratio returns n/d correctly rounded to float64 (round half to even),
// for 0 ≤ n ≤ d.  It returns 0 when n is 0, whatever d.
func ratio(n, d u128) float64 {
	if n == (u128{}) {
		return 0
	}
	if d.hi == 0 && d.lo < 1<<53 {
		return float64(n.lo) / float64(d.lo) // both exact: one IEEE rounding
	}
	// Normalize both to a top bit at 127: n/d = (N/D)·2^(zd−zn).  A
	// quotient q = ⌊N·2^s/D⌋ in [2^63, 2^64) holds 11 bits below
	// float64's 53, so OR-ing a nonzero remainder into bit 0 makes the
	// uint64→float64 conversion round as the exact quotient would.
	zd, zn := d.leadingZeros(), n.leadingZeros()
	D, N := d.shl(zd), n.shl(zn)
	e := int(zd) - int(zn) - 64
	u2, u1, u0 := N.hi, N.lo, uint64(0) // N·2^64
	if !N.less(D) {
		u2, u1, u0 = N.hi>>1, N.hi<<63|N.lo>>1, N.lo<<63 // N·2^63
		e++
	}
	q, inexact := div3by2(u2, u1, u0, D.hi, D.lo)
	if inexact {
		q |= 1
	}
	return math.Ldexp(float64(q), e)
}

// div3by2 returns ⌊U/D⌋ for U = (u2, u1, u0) and a normalized
// D = (d1, d0) (top bit of d1 set) with (u2, u1) < D, so the quotient
// fits a word, and whether the division leaves a remainder.  The
// estimate from the top words is at most two too large (Knuth, TAOCP
// vol. 2, §4.3.1, Theorem B), and the multiply-back corrects it.
func div3by2(u2, u1, u0, d1, d0 uint64) (q uint64, inexact bool) {
	q = math.MaxUint64
	if u2 < d1 {
		q, _ = bits.Div64(u2, u1, d1)
	}
	h0, p0 := bits.Mul64(q, d0)
	p2, l1 := bits.Mul64(q, d1)
	p1, c := bits.Add64(l1, h0, 0)
	p2 += c
	for p2 > u2 || p2 == u2 && (p1 > u1 || p1 == u1 && p0 > u0) {
		q--
		var b uint64
		p0, b = bits.Sub64(p0, d0, 0)
		p1, b = bits.Sub64(p1, d1, b)
		p2 -= b
	}
	return q, p0 != u0 || p1 != u1 || p2 != u2
}

// mont is Montgomery arithmetic modulo an odd p < 2^62 with R = 2^64.
// Values stay reduced to [0, p); add and sub are branch-free.
type mont struct {
	p    uint64
	pinv uint64 // p⁻¹ mod 2^64
	r2   uint64 // R² mod p
}

func newMont(p uint64) mont {
	inv := p // correct to 3 bits for odd p; each Newton step doubles that
	for range 5 {
		inv *= 2 - p*inv
	}
	r := bits.Rem64(1, 0, p)
	return mont{p: p, pinv: inv, r2: mulmod(r, r, p)}
}

// mulmod returns a·b mod p by long division (set-up only).
func mulmod(a, b, p uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return bits.Rem64(hi, lo, p)
}

// mul returns a·b·R⁻¹ mod p: with b in Montgomery form (b·R), a·b.
func (m mont) mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	h, _ := bits.Mul64(lo*m.pinv, m.p)
	r, borrow := bits.Sub64(hi, h, 0)
	return r + m.p&-borrow
}

func (m mont) add(a, b uint64) uint64 {
	s := a + b - m.p
	return s + m.p&uint64(int64(s)>>63)
}

func (m mont) sub(a, b uint64) uint64 {
	d := a - b
	return d + m.p&uint64(int64(d)>>63)
}

// toMont returns x·R mod p.
func (m mont) toMont(x uint64) uint64 { return m.mul(x, m.r2) }

// pow returns x^e mod p, x and the result in Montgomery form.
func (m mont) pow(x, e uint64) uint64 {
	r := m.toMont(1)
	for ; e > 0; e >>= 1 {
		if e&1 != 0 {
			r = m.mul(r, x)
		}
		x = m.mul(x, x)
	}
	return r
}

// roots fills z with the powers ω^t (t < len(z)) of a primitive
// 2·len(z)-th root of unity ω, in Montgomery form, each at the bit
// reversal of t: the twiddles of a length-2·len(z) transform.
func (m mont) roots(z []uint64, g uint64) {
	if len(z) == 0 {
		return
	}
	b := bits.Len(uint(len(z))) - 1
	w := m.pow(m.toMont(g), (m.p-1)/uint64(2*len(z)))
	x := m.toMont(1)
	for t := range z {
		z[bits.Reverse64(uint64(t))>>(63-b)>>1] = x
		x = m.mul(x, w)
	}
}

// The length-n transform behind cyclic splits, level by level, the
// polynomial held by each block into its residues: block K of a level
// holds it modulo X^(2h) − c², c = τ_K, and splits it into its residues
// modulo X^h − c and X^h + c.  With ω a primitive n-th root of unity,
// τ_K = ω^rev(K), rev reversing the bits of K below n/2.  So τ_0 = 1,
// the level with B blocks uses τ_0 … τ_{B−1}, and where K and K′ share
// no bits, τ_{K+K′} = τ_K·τ_{K′}.
//
// cyclic runs the transform one subtree at a time: subtree s of depth
// log S (S = nttSubtrees), of length L = n/S, is itself a length-L transform whose block
// k at local level b is block s·b + k of the whole, with twiddle
// τ_{s·b}·τ_k.  The τ_k (k < L/2) come from z, the τ_{s·b} from φ.

// forward transforms a subtree in place: natural-order coefficients
// in, evaluations out in bit-reversed order.  φ[i] is the subtree's
// factor at local level 2^i.
func (m mont) forward(a, z, phi []uint64) {
	for h, i := len(a)/2, 0; h >= 1; h, i = h/2, i+1 {
		for k := range 1 << i {
			x, y := a[2*h*k:2*h*k+h], a[2*h*k+h:2*h*(k+1)]
			y = y[:len(x)]
			c := m.mul(z[k], phi[i])
			for j, u := range x {
				t := m.mul(y[j], c)
				x[j], y[j] = m.add(u, t), m.sub(u, t)
			}
		}
	}
}

// inverse undoes forward on subtree s, up to a factor len(a): block K
// merges its residues (x, y) back into (x + y, (x − y)/τ_K).  For
// K ≥ 1, 1/τ_K = −ω^(n/2−rev(K)) = −τ_K′ with K′ = K with every bit
// below its top bit flipped; so y becomes (y − x)·τ_K′.  In subtree
// s ≥ 1, τ_K′ = τ_{s′·b}·τ_{k ^ (b−1)} with s′ = s's flip, and φ[i]
// carries τ_{s′·2^i}.
func (m mont) inverse(a, z, phi []uint64, s int) {
	for h, i := 1, bits.Len(uint(len(a)))-2; h < len(a); h, i = h*2, i-1 {
		blocks := len(a) / (2 * h)
		for k := range blocks {
			x, y := a[2*h*k:2*h*k+h], a[2*h*k+h:2*h*(k+1)]
			y = y[:len(x)]
			var c uint64
			switch {
			case s == 0 && k == 0:
				for j, u := range x {
					x[j], y[j] = m.add(u, y[j]), m.sub(u, y[j])
				}
				continue
			case s == 0:
				c = z[k^(1<<(bits.Len(uint(k))-1)-1)]
			default:
				c = m.mul(z[k^(blocks-1)], phi[i])
			}
			for j, u := range x {
				v := y[j]
				x[j], y[j] = m.add(u, v), m.mul(m.sub(v, u), c)
			}
		}
	}
}

// horner sets dst[j] = dst[j]·g + x_{off+j} mod p, g in Montgomery form,
// for p's numerators x (0 past M).
func (m mont) horner(dst []uint64, p *PMF, off int, g uint64) {
	n := min(len(dst), max(p.M-off, 0))
	for j := n; j < len(dst); j++ {
		dst[j] = m.mul(dst[j], g)
	}
	switch {
	case p.num == nil:
		d := float64(p.den.lo)
		for j, v := range p.P[off : off+n] {
			dst[j] = m.add(m.mul(dst[j], g), uint64(v*d+0.5)) // ≤ den < 2^51 < p
		}
	case p.numHi == nil:
		for j, x := range p.num[off : off+n] {
			if x >= m.p {
				x %= m.p
			}
			dst[j] = m.add(m.mul(dst[j], g), x)
		}
	default:
		for j, x := range p.num[off : off+n] {
			dst[j] = m.add(m.mul(dst[j], g), bits.Rem64(p.numHi[off+j], x, m.p))
		}
	}
}

// nttSubtrees is the number of subtrees cyclic runs one at a time: the
// buffers are 2/nttSubtrees of the product's length.
const nttSubtrees = 4

// cyclic writes the numerators of p⊛q mod (X^M − 1) into acc, as
// residues mod the prime, through a and b (the same slice when p is q)
// and z, of lengths L and L/2: the subtrees of a length-n transform,
// n = nttSubtrees·L ≥ 2M − 1, so the linear product fits it.
//
// Subtree s holds a polynomial modulo X^L − γ_s, where γ_s = ±τ_{s/2}
// (minus for odd s) runs over the nttSubtrees-th roots of unity; so it
// loads Σ_t γ_s^t·x_{j+tL}, and its product C_s contributes
// γ_s^(−t)·C_s[j]/nttSubtrees to coefficient j + tL of the linear
// product, which lands in bin (j + tL) mod M.
func (m mont) cyclic(acc []uint64, p, q *PMF, a, b, z []uint64, g uint64) {
	l, mod := len(a), len(acc)
	n := nttSubtrees * l
	w := m.pow(m.toMont(g), (m.p-1)/uint64(n)) // ω
	tau := func(k int) uint64 {
		return m.pow(w, bits.Reverse64(uint64(k))>>(66-bits.Len(uint(n))))
	}
	ninv := m.mul(m.r2, m.toMont(m.p-(m.p-1)/uint64(n))) // R²/n
	levels := bits.Len(uint(l)) - 1
	fphi, iphi := make([]uint64, levels), make([]uint64, levels)
	clear(acc)
	for s := range nttSubtrees {
		for i := range levels {
			fphi[i] = tau(s << i)
			if s > 0 {
				iphi[i] = tau((s ^ (1<<(bits.Len(uint(s))-1) - 1)) << i)
			}
		}
		gamma := tau(s / 2)
		if s%2 == 1 {
			gamma = m.sub(0, gamma)
		}
		load := func(dst []uint64, x *PMF) {
			for t := nttSubtrees/2 - 1; t >= 0; t-- { // Horner from the top block
				c := gamma
				if t == nttSubtrees/2-1 {
					c = 0
				}
				m.horner(dst, x, t*l, c)
			}
			m.forward(dst, z, fphi)
		}
		load(a, p)
		if &b[0] != &a[0] {
			load(b, q)
		}
		for j, v := range b {
			a[j] = m.mul(a[j], v)
		}
		m.inverse(a, z, iphi, s)
		// a[j] is now L·C_s[j]·R⁻¹, so mul by R²/n·γ^(−t) gives
		// γ^(−t)·C_s[j]/nttSubtrees.
		ginv := m.pow(gamma, m.p-2)
		c := ninv
		for t := range nttSubtrees {
			i := t * l % mod
			for _, x := range a {
				acc[i] = m.add(acc[i], m.mul(x, c))
				if i++; i == mod {
					i = 0
				}
			}
			c = m.mul(c, ginv)
		}
	}
}
