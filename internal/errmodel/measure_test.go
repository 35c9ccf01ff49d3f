package errmodel

import (
	"math/rand/v2"

	"realsum/internal/crc"
	"realsum/internal/fletcher"
	"realsum/internal/inet"
	"realsum/internal/onescomp"
)

// The Monte-Carlo detection harness the tests use to confirm the
// classical guarantees (a w-bit CRC catches every burst shorter than
// w+1 bits; the TCP checksum catches every burst of 15 bits or less;
// random substitutions on uniform data are missed at ≈2^-w), with the
// two models only it draws from.

// Burst flips a contiguous run of bits: the first and last bit of the
// run are always flipped (so the burst length is exact) and interior
// bits flip with probability ½.
type Burst struct {
	// Bits is the burst length in bits (≥ 1).
	Bits int
}

// Name implements Model.
func (b Burst) Name() string { return "burst" }

// CorruptInPlace implements Model.
func (b Burst) CorruptInPlace(rng *rand.Rand, out []byte) {
	n := len(out) * 8
	if b.Bits < 1 || b.Bits > n {
		panic("errmodel: burst length out of range")
	}
	start := rng.IntN(n - b.Bits + 1)
	flip := func(bit int) { out[bit/8] ^= 0x80 >> uint(bit%8) }
	flip(start)
	if b.Bits > 1 {
		flip(start + b.Bits - 1)
		for i := 1; i < b.Bits-1; i++ {
			if rng.Uint32()&1 == 1 {
				flip(start + i)
			}
		}
	}
}

// Garbage replaces a random span of Bytes bytes with uniform random
// bytes (guaranteed to differ from the original span) — §7's "data is
// replaced by garbage" model.
type Garbage struct {
	Bytes int
}

// Name implements Model.
func (g Garbage) Name() string { return "garbage" }

// CorruptInPlace implements Model.  The change guarantee survives
// in-place operation: a retry only happens when the regenerated span
// equalled the previous one byte-for-byte, in which case the buffer
// still holds the original span.
func (g Garbage) CorruptInPlace(rng *rand.Rand, out []byte) {
	if g.Bytes < 1 || g.Bytes > len(out) {
		panic("errmodel: garbage span out of range")
	}
	start := rng.IntN(len(out) - g.Bytes + 1)
	for {
		changed := false
		for i := start; i < start+g.Bytes; i++ {
			old := out[i]
			out[i] = byte(rng.Uint32())
			if out[i] != old {
				changed = true
			}
		}
		if changed {
			return
		}
	}
}

// Check is an integrity check: it digests a buffer to a comparable
// value.  An error is "missed" when the damaged buffer digests equal to
// the original.
type Check struct {
	Name   string
	Digest func(data []byte) uint64
}

// TCPCheck is the Internet checksum as a Check.
func TCPCheck() Check {
	return Check{Name: "TCP", Digest: func(d []byte) uint64 { return uint64(onescomp.Normalize(inet.Sum(d))) }}
}

// FletcherCheck returns the Fletcher checksum (mod 255 or 256) as a
// Check.
func FletcherCheck(m fletcher.Mod) Check {
	name := "F-255"
	if m == fletcher.Mod256 {
		name = "F-256"
	}
	return Check{Name: name, Digest: func(d []byte) uint64 { return uint64(m.Sum(d).Checksum16()) }}
}

// CRCCheck returns a CRC algorithm as a Check.
func CRCCheck(p crc.Params) Check {
	t := crc.New(p)
	return Check{Name: p.Name, Digest: t.Checksum}
}

// Measure runs trials rounds of: corrupt a fresh copy of data with
// model, test whether check's digest changed.  It returns the number of
// undetected corruptions.  Deterministic for a given seed; data is left
// untouched.
func Measure(check Check, model Model, data []byte, trials int, seed uint64) (missed int) {
	rng := rand.New(rand.NewPCG(seed, 0xE44))
	orig := check.Digest(data)
	buf := make([]byte, len(data))
	for i := 0; i < trials; i++ {
		copy(buf, data)
		model.CorruptInPlace(rng, buf)
		if check.Digest(buf) == orig {
			missed++
		}
	}
	return missed
}
