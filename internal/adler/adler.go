// Package adler implements Adler-32 from scratch — the direct modern
// descendant of the Fletcher checksums the paper studies.  Adler-32
// keeps Fletcher's two running sums but works modulo 65521 (the largest
// prime below 2^16) over 16-bit accumulators, trading a little speed
// for the prime modulus.  Mark Adler chose the prime specifically to
// avoid the composite-modulus weaknesses this paper documents for
// Fletcher mod 255 (the two zeros) and mod 256; the package exists so
// the benchmark suite can extend Table 8 with the "what came after"
// column.
//
// The implementation is verified bit-for-bit against the standard
// library's hash/adler32 in the tests.
package adler

// Mod is the Adler-32 modulus: the largest prime below 2^16.
const Mod = 65521

// nmax is the largest n such that 255·n·(n+1)/2 + (n+1)·(Mod−1) fits a
// uint32 — the classic zlib reduction bound.
const nmax = 5552

// Checksum returns the Adler-32 of data: B<<16 | A with A seeded to 1.
func Checksum(data []byte) uint32 {
	a, b := uint32(1), uint32(0)
	for len(data) > 0 {
		chunk := data
		if len(chunk) > nmax {
			chunk = chunk[:nmax]
		}
		data = data[len(chunk):]
		for _, d := range chunk {
			a += uint32(d)
			b += a
		}
		a %= Mod
		b %= Mod
	}
	return b<<16 | a
}
