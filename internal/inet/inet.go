// Package inet implements the Internet checksum of RFC 1071 — the 16-bit
// ones-complement sum used by IP, TCP and UDP — together with the
// compositional machinery the paper's splice analysis depends on:
// partial sums over fragments at arbitrary byte offsets, appended in
// order, and incremental update.
//
// The checksum of a packet equals the ones-complement sum of the partial
// sums of its pieces (§4.1 of the paper), with one twist: a fragment that
// begins at an odd byte offset contributes its partial sum byte-swapped.
// The Partial type tracks enough state (sum and length parity) to make
// composition exact.
package inet

import "realsum/internal/onescomp"

// Sum returns the raw (uncomplemented) ones-complement sum of data,
// taken as big-endian 16-bit words with a trailing odd byte zero-padded.
func Sum(data []byte) uint16 { return onescomp.SumBytes(data) }

// Checksum returns the Internet checksum of data: the ones-complement of
// the ones-complement sum.  This is the value transmitted in the wire
// checksum field of IP, TCP and UDP headers.
func Checksum(data []byte) uint16 { return onescomp.Neg(Sum(data)) }

// Verify reports whether data, which must include its checksum field,
// sums to a representation of ones-complement zero — the receiver-side
// check of RFC 1071.
func Verify(data []byte) bool { return onescomp.IsZero(Checksum(data)) }

// Partial is the checksum state of a fragment of a larger buffer.  Sum
// holds the ones-complement sum of the fragment as if the fragment began
// at an even offset; Len is the fragment length in bytes.  Partials over
// adjacent fragments combine with Append; the parity of the left
// fragment's length determines whether the right partial is byte-swapped.
type Partial struct {
	Sum uint16
	Len int
}

// NewPartial computes the partial checksum of one fragment.
func NewPartial(data []byte) Partial {
	return Partial{Sum: onescomp.SumBytes(data), Len: len(data)}
}

// Append returns the partial for the concatenation of p's fragment
// followed by q's fragment.
func (p Partial) Append(q Partial) Partial {
	s := q.Sum
	if p.Len%2 == 1 {
		s = onescomp.Swap(s)
	}
	return Partial{Sum: onescomp.Add(p.Sum, s), Len: p.Len + q.Len}
}

// Update adjusts a raw sum for the 16-bit word at even offset changing
// from from to to.  See onescomp.UpdateSum.
func Update(sum, from, to uint16) uint16 { return onescomp.UpdateSum(sum, from, to) }
