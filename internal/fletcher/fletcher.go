// Package fletcher implements Fletcher's checksum over 8-bit blocks in
// both the ones-complement (mod 255) and twos-complement (mod 256)
// variants the paper studies, plus the 32-bit variant over 16-bit blocks.
//
// A Fletcher sum keeps two accumulators: A, the plain sum of the data
// bytes, and B, the sum of each byte weighted by its position from the
// end of the packet (equivalently, the running sum of A).  B is what
// gives Fletcher its positional sensitivity; §5.2 of the paper shows that
// over non-uniform real data the positional weighting "colours" each
// cell's contribution by its offset, which is why Fletcher beats the TCP
// checksum against packet splices even though both have similarly skewed
// single-cell distributions.
//
// The package exposes the same compositional machinery the paper's
// analysis uses: a Pair computed over a fragment in isolation can be
// recombined at any end-offset P via B' = B + A·P (mod M).
package fletcher

// Mod selects the Fletcher arithmetic: 255 for the ones-complement
// variant (two zeros: 0x00 and 0xFF are congruent — the root of the
// §5.5 PBM pathology) or 256 for the twos-complement variant used by TP4.
type Mod uint16

const (
	// Mod255 is ones-complement Fletcher: bytes are summed modulo 255.
	Mod255 Mod = 255
	// Mod256 is twos-complement Fletcher: bytes are summed modulo 256.
	Mod256 Mod = 256
)

// Pair holds the two Fletcher accumulators, each reduced modulo the Mod
// that produced it.  The zero Pair is the sum of the empty string.
type Pair struct {
	A uint16 // plain byte sum mod M
	B uint16 // position-weighted sum mod M (last byte has weight 1)
}

// Checksum16 packs the pair into the 16-bit checksum the paper reports:
// B in the high byte, A in the low byte.
func (p Pair) Checksum16() uint16 { return p.B<<8 | p.A }

// reduceEvery bounds how many bytes may be accumulated into 64-bit
// A/B counters before a modular reduction is required.  With d ≤ 255,
// after n bytes B ≤ 255·n·(n+1)/2; n = 5552 keeps B < 2^32 even after
// adding a prior reduced value, the same bound Adler-32 uses.
const reduceEvery = 5552

// Sum computes the Fletcher pair of data under modulus m, weighting each
// byte by its position from the end of data (the final byte has weight 1).
func (m Mod) Sum(data []byte) Pair {
	mod := uint64(m)
	var a, b uint64
	for len(data) > 0 {
		chunk := data
		if len(chunk) > reduceEvery {
			chunk = chunk[:reduceEvery]
		}
		data = data[len(chunk):]
		for _, d := range chunk {
			a += uint64(d)
			b += a
		}
		a %= mod
		b %= mod
	}
	return Pair{A: uint16(a), B: uint16(b)}
}

// add returns x+y mod m.
func (m Mod) add(x, y uint16) uint16 { return uint16((uint32(x) + uint32(y)) % uint32(m)) }

// mul returns x·y mod m.
func (m Mod) mul(x, y uint16) uint16 { return uint16(uint32(x) * uint32(y) % uint32(m)) }

// neg returns −x mod m.
func (m Mod) neg(x uint16) uint16 {
	x %= uint16(m)
	if x == 0 {
		return 0
	}
	return uint16(m) - x
}

// ShiftedBy returns the contribution of a fragment whose standalone pair
// is p when the fragment's final byte sits off bytes before the end of
// the enclosing packet: A is unchanged and B gains A·off (§5.2).
func (m Mod) ShiftedBy(p Pair, off int) Pair {
	o := uint16(uint64(off) % uint64(m))
	return Pair{A: p.A, B: m.add(p.B, m.mul(p.A, o))}
}

// Append returns the pair of the concatenation of fragment p followed by
// fragment q, where q is lenQ bytes long: p's bytes all move lenQ
// positions further from the end.
func (m Mod) Append(p Pair, lenQ int, q Pair) Pair {
	ps := m.ShiftedBy(p, lenQ)
	return Pair{A: m.add(ps.A, q.A), B: m.add(ps.B, q.B)}
}

// CheckBytes computes the two check bytes x, y to be stored adjacently
// (x immediately before y) with trailing bytes of the packet following y,
// so that the Fletcher sum of the completed packet is (0, 0) — the
// "sum-to-zero inversion" the paper's simulations transmit.  data must
// already contain zeros in the two check-byte positions.
//
// With A₀,B₀ the sums over data and w = trailing+1 the positional weight
// of y, the check bytes solve
//
//	A₀ + x + y           ≡ 0 (mod M)
//	B₀ + (w+1)·x + w·y   ≡ 0 (mod M)
//
// which reduces to x = w·A₀ − B₀ and y = −(A₀ + x).  The system is
// always solvable because the two positions are adjacent (their weight
// difference, 1, is a unit mod M) — the condition Theorem 7's proof in
// the paper's appendix turns on.
func (m Mod) CheckBytes(data []byte, trailing int) (x, y byte) {
	p := m.Sum(data)
	w := uint16(uint64(trailing+1) % uint64(m))
	xv := m.add(m.mul(w, p.A), m.neg(p.B))
	yv := m.neg(m.add(p.A, xv))
	return byte(xv), byte(yv)
}

// Verify reports whether data, with its check bytes in place, has a
// Fletcher sum congruent to (0, 0) under m.
func (m Mod) Verify(data []byte) bool {
	p := m.Sum(data)
	return p.A%uint16(m) == 0 && p.B%uint16(m) == 0
}

// Pair32 holds the accumulators of the 32-bit Fletcher sum over 16-bit
// blocks, each reduced modulo 65535 (the ones-complement variant
// Fletcher defined for wider words).
type Pair32 struct {
	A uint32
	B uint32
}

// Checksum32 packs the pair into a 32-bit checksum: B high, A low.
func (p Pair32) Checksum32() uint32 { return p.B<<16 | p.A }

// Sum32 computes the 32-bit Fletcher sum of data taken as big-endian
// 16-bit blocks (a trailing odd byte is zero-padded), mod 65535.
func Sum32(data []byte) Pair32 {
	const mod = 65535
	var a, b uint64
	n := 0
	flush := func() {
		a %= mod
		b %= mod
		n = 0
	}
	for i := 0; i+2 <= len(data); i += 2 {
		a += uint64(data[i])<<8 | uint64(data[i+1])
		b += a
		if n++; n == 21845 { // keeps b < 2^63 comfortably
			flush()
		}
	}
	if len(data)%2 == 1 {
		a += uint64(data[len(data)-1]) << 8
		b += a
	}
	flush()
	return Pair32{A: uint32(a), B: uint32(b)}
}
