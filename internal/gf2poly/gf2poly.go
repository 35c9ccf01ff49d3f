// Package gf2poly implements polynomial arithmetic over GF(2), the
// algebra CRCs live in.  It exists so the error-detection guarantees §2
// of the paper asserts can be *computed* rather than quoted: a CRC
// detects all odd-weight errors iff its generator is divisible by x+1,
// detects 2-bit errors at spacing d iff d is below the multiplicative
// order of x modulo the generator's largest irreducible factor, and
// detects all bursts shorter than its degree unconditionally.
//
// Polynomials are represented as bit vectors over []uint64 words, least
// significant coefficient in bit 0 of word 0, so degrees are unbounded
// (CRC-64 generators have degree 64 and need 65 bits).
package gf2poly

import "math/bits"

// Poly is a polynomial over GF(2).  The zero value is the zero
// polynomial.  Words hold coefficients little-endian; trailing zero
// words are kept trimmed by the constructors and operations.
type Poly struct {
	w []uint64
}

// New returns the polynomial with the given coefficient word.
func New(coeffs uint64) Poly {
	return Poly{}.setBitSource([]uint64{coeffs})
}

// FromWords builds a polynomial from little-endian coefficient words.
func FromWords(words []uint64) Poly {
	return Poly{}.setBitSource(words)
}

// FromCRC builds the full generator polynomial of a CRC from its
// Rocksoft representation: the width-bit poly value plus the implicit
// x^width term.
func FromCRC(poly uint64, width uint8) Poly {
	words := []uint64{poly}
	if width == 64 {
		words = append(words, 1)
	} else {
		words[0] |= 1 << width
	}
	return FromWords(words)
}

// Monomial returns x^n.
func Monomial(n int) Poly {
	if n < 0 {
		panic("gf2poly: negative degree")
	}
	w := make([]uint64, n/64+1)
	w[n/64] = 1 << uint(n%64)
	return Poly{w: w}
}

func (p Poly) setBitSource(words []uint64) Poly {
	w := append([]uint64(nil), words...)
	return Poly{w: w}.trim()
}

func (p Poly) trim() Poly {
	n := len(p.w)
	for n > 0 && p.w[n-1] == 0 {
		n--
	}
	p.w = p.w[:n]
	return p
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p.w) == 0 }

// Degree returns the degree of p, or -1 for the zero polynomial.
func (p Poly) Degree() int {
	if p.IsZero() {
		return -1
	}
	top := p.w[len(p.w)-1]
	return (len(p.w)-1)*64 + bits.Len64(top) - 1
}

// Bit reports coefficient i.
func (p Poly) Bit(i int) bool {
	if i < 0 || i/64 >= len(p.w) {
		return false
	}
	return p.w[i/64]>>uint(i%64)&1 == 1
}

// Equal reports whether p and q are the same polynomial.
func (p Poly) Equal(q Poly) bool {
	if len(p.w) != len(q.w) {
		return false
	}
	for i := range p.w {
		if p.w[i] != q.w[i] {
			return false
		}
	}
	return true
}

// Add returns p + q (which over GF(2) is also p − q).
func (p Poly) Add(q Poly) Poly {
	n := len(p.w)
	if len(q.w) > n {
		n = len(q.w)
	}
	out := make([]uint64, n)
	copy(out, p.w)
	for i, w := range q.w {
		out[i] ^= w
	}
	return Poly{w: out}.trim()
}

// Shl returns p · x^n.
func (p Poly) Shl(n int) Poly {
	if p.IsZero() || n == 0 {
		return p
	}
	words, bitsOff := n/64, uint(n%64)
	out := make([]uint64, len(p.w)+words+1)
	for i, w := range p.w {
		out[i+words] |= w << bitsOff
		if bitsOff > 0 {
			out[i+words+1] |= w >> (64 - bitsOff)
		}
	}
	return Poly{w: out}.trim()
}

// Mul returns p · q.
func (p Poly) Mul(q Poly) Poly {
	if p.IsZero() || q.IsZero() {
		return Poly{}
	}
	out := make([]uint64, len(p.w)+len(q.w))
	for i, pw := range p.w {
		for pw != 0 {
			b := bits.TrailingZeros64(pw)
			pw &= pw - 1
			shift := i*64 + b
			words, off := shift/64, uint(shift%64)
			for j, qw := range q.w {
				out[j+words] ^= qw << off
				if off > 0 {
					out[j+words+1] ^= qw >> (64 - off)
				}
			}
		}
	}
	return Poly{w: out}.trim()
}

// DivMod returns the quotient and remainder of p ÷ q.  It panics if q
// is zero.
func (p Poly) DivMod(q Poly) (quo, rem Poly) {
	if q.IsZero() {
		panic("gf2poly: division by zero polynomial")
	}
	dq := q.Degree()
	rem = p
	var quoBits []int
	for {
		dr := rem.Degree()
		if dr < dq {
			break
		}
		shift := dr - dq
		quoBits = append(quoBits, shift)
		rem = rem.Add(q.Shl(shift))
	}
	quo = Poly{}
	for _, b := range quoBits {
		quo = quo.Add(Monomial(b))
	}
	return quo, rem
}

// Mod returns p mod q.
func (p Poly) Mod(q Poly) Poly {
	_, r := p.DivMod(q)
	return r
}

// DivisibleBy reports whether q divides p exactly.
func (p Poly) DivisibleBy(q Poly) bool { return p.Mod(q).IsZero() }

// GCD returns the greatest common divisor of p and q.
func GCD(p, q Poly) Poly {
	for !q.IsZero() {
		p, q = q, p.Mod(q)
	}
	return p
}

// MulMod returns p·q mod m.
func MulMod(p, q, m Poly) Poly { return p.Mul(q).Mod(m) }

// X1 is the polynomial x + 1, whose presence as a factor of a CRC
// generator is exactly the condition for detecting all odd-weight
// errors.
func X1() Poly { return New(3) }

// DetectsOddErrors reports whether a CRC with this generator detects
// every error pattern of odd weight: true iff (x+1) divides the
// generator, because then every codeword has even weight while an
// odd-weight error can never sum to even parity.
func DetectsOddErrors(generator Poly) bool {
	return generator.DivisibleBy(X1())
}

// IsIrreducible reports whether p (degree ≥ 1) is irreducible over
// GF(2), by the standard Rabin test: x^(2^d) ≡ x (mod p) and
// gcd(x^(2^(d/q)) − x, p) = 1 for every prime divisor q of d.
func IsIrreducible(p Poly) bool {
	d := p.Degree()
	if d < 1 {
		return false
	}
	if d == 1 {
		return true
	}
	if !p.Bit(0) {
		return false // divisible by x
	}
	// x^(2^d) mod p must equal x.
	if !expTwoPow(d, p).Equal(Monomial(1).Mod(p)) {
		return false
	}
	for _, q := range primeFactors(d) {
		h := expTwoPow(d/q, p).Add(Monomial(1).Mod(p))
		if !GCD(h, p).Equal(New(1)) {
			return false
		}
	}
	return true
}

// expTwoPow returns x^(2^k) mod m by k successive squarings.
func expTwoPow(k int, m Poly) Poly {
	r := Monomial(1).Mod(m)
	for i := 0; i < k; i++ {
		r = MulMod(r, r, m)
	}
	return r
}

func primeFactors(n int) []int {
	var out []int
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			out = append(out, f)
			for n%f == 0 {
				n /= f
			}
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	return out
}
