// Package onescomp implements 16-bit ones-complement arithmetic, the
// substrate of the Internet (IP/TCP/UDP) checksum studied by the paper.
//
// Ones-complement arithmetic on 16-bit quantities has two representations
// of zero (0x0000 and 0xFFFF) and uses end-around carry: any carry out of
// the top bit is added back into the low bit.  The Internet checksum is
// the ones-complement of the ones-complement sum of the 16-bit words of
// the data (RFC 1071).  Several of the paper's observations — notably
// that replacing sixteen 1-bits by sixteen 0-bits is undetectable, and
// that "zero is special because it is represented by both 0x0000 and
// 0xFFFF" (§6.1) — are properties of this arithmetic, so it lives in its
// own package with exhaustive tests.
package onescomp

import "encoding/binary"

// Add returns the 16-bit ones-complement sum of a and b, performing the
// end-around carry.  Add is commutative and associative, which is what
// lets a packet checksum be assembled from per-cell partial sums (§4.1).
func Add(a, b uint16) uint16 {
	s := uint32(a) + uint32(b)
	return uint16(s) + uint16(s>>16)
}

// Fold reduces an arbitrary 64-bit accumulator of 16-bit word sums to a
// 16-bit ones-complement value by repeatedly adding the carries back in.
func Fold(x uint64) uint16 {
	x = (x >> 32) + (x & 0xFFFFFFFF) // at most 33 bits
	x = (x >> 32) + (x & 0xFFFFFFFF) // at most 32 bits
	x = (x >> 16) + (x & 0xFFFF)     // at most 17 bits
	x = (x >> 16) + (x & 0xFFFF)     // 16 bits
	return uint16(x)
}

// Neg returns the ones-complement negation (bitwise complement) of x.
// In ones-complement arithmetic, Add(x, Neg(x)) is a representation of
// zero for every x.
func Neg(x uint16) uint16 { return ^x }

// Sub returns the ones-complement difference a − b.
func Sub(a, b uint16) uint16 { return Add(a, Neg(b)) }

// IsZero reports whether x is one of the two ones-complement
// representations of zero.  The TCP checksum cannot distinguish a run of
// sixteen 1-bits from a run of sixteen 0-bits precisely because of this
// double zero (§2, §6.1).
func IsZero(x uint16) bool { return x == 0x0000 || x == 0xFFFF }

// Normalize maps the negative zero 0xFFFF onto 0x0000 so congruent sums
// compare equal with ==.  All other values are returned unchanged.
func Normalize(x uint16) uint16 {
	if x == 0xFFFF {
		return 0
	}
	return x
}

// Congruent reports whether a and b are equal as ones-complement values,
// treating 0x0000 and 0xFFFF as the same number.
func Congruent(a, b uint16) bool { return Normalize(a) == Normalize(b) }

// SumBytes returns the ones-complement sum of data taken as a sequence of
// big-endian 16-bit words, padding a trailing odd byte with zero, exactly
// as RFC 1071 specifies.  The returned value is the raw sum; the Internet
// checksum transmitted on the wire is its complement.
//
// The fast path exploits 2^16 ≡ 1 (mod 2^16−1): any power-of-two-sized
// chunk of the byte stream may be accumulated as a wide big-endian
// integer and folded at the end, so the inner loop consumes 16 bytes
// per iteration as four 32-bit loads — the "one or two additions per
// machine word" cost model of the paper's §2.
func SumBytes(data []byte) uint16 {
	var acc, acc2 uint64
	i := 0
	for ; i+16 <= len(data); i += 16 {
		v1 := binary.BigEndian.Uint64(data[i:])
		v2 := binary.BigEndian.Uint64(data[i+8:])
		acc += v1>>32 + v1&0xFFFFFFFF
		acc2 += v2>>32 + v2&0xFFFFFFFF
	}
	// Each accumulator gains < 2^33 per iteration, so a uint64 absorbs
	// ≥ 32 GiB of input — far beyond any packet or cell buffer.
	acc = uint64(Fold(acc)) + uint64(Fold(acc2))
	for ; i+4 <= len(data); i += 4 {
		acc += uint64(binary.BigEndian.Uint32(data[i:]))
	}
	for ; i+2 <= len(data); i += 2 {
		acc += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if i < len(data) {
		acc += uint64(data[i]) << 8
	}
	return Fold(acc)
}

// Swap exchanges the two bytes of x.  The ones-complement sum is
// byte-order independent up to this swap (RFC 1071 §2(B)): summing
// byte-swapped words yields the byte-swapped sum.  Swap is what lets a
// partial sum computed over a fragment that starts at an odd byte offset
// be folded into a word-aligned total.
func Swap(x uint16) uint16 { return x<<8 | x>>8 }

// UpdateSum adjusts a raw (uncomplemented) sum for a 16-bit word of the
// covered data changing from from to to.
func UpdateSum(sum, from, to uint16) uint16 {
	return Add(Add(sum, Neg(from)), to)
}
