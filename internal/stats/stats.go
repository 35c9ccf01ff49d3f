// Package stats holds the small numeric helpers the experiment harness
// shares: effective-bits conversion, the uniform-data miss rate and
// Shannon entropy.
package stats

import "math"

// EffectiveBits converts a miss rate into the width of the uniform-data
// CRC that would miss at the same rate: a check that misses fraction r
// of errors behaves like a −log2(r)-bit check.  This is how §7 arrives
// at "the 16-bit TCP checksum performed about as well as a 10-bit CRC".
// A zero rate returns +Inf.
func EffectiveBits(missRate float64) float64 {
	if missRate <= 0 {
		return math.Inf(1)
	}
	return -math.Log2(missRate)
}

// UniformMissRate is the expected miss rate of a w-bit check over
// uniformly distributed data: 2^-w.
func UniformMissRate(bits int) float64 {
	return math.Ldexp(1, -bits)
}

// ShannonEntropy returns the entropy in bits per symbol of the given
// count histogram — the §1 motivation quantified: English text runs
// ≈4.5 bits/byte, compiled binaries ≈2–6, LZW output ≈8.
func ShannonEntropy(counts []uint64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}
