// Package ipfrag implements IPv4 fragmentation and reassembly, plus the
// fragment-substitution error model the paper's abstract points at:
// "for fragmentation-and-reassembly error models, the checksum
// contribution of each fragment [is], in effect, coloured by the
// fragment's offset in the splice."
//
// The model here is a buggy reassembler (or an IP-ID collision) that
// stitches a packet together from fragments of two adjacent packets.
// Because IP fragment offsets pin each fragment to its byte position,
// the substituted data lands at the *same* offset it came from — unlike
// AAL5 splices, where dropped cells shift every later cell.  The
// coloring theory therefore predicts that Fletcher's positional term
// buys nothing against same-offset fragment swaps: its failure
// condition degenerates to the same equal-sums condition as the TCP
// checksum.  The FragSwap experiment confirms exactly that.
package ipfrag

import (
	"bytes"
	"errors"

	"realsum/internal/inet"
	"realsum/internal/tcpip"
)

// Errors from fragmentation and reassembly.
var (
	ErrShortPacket   = errors.New("ipfrag: packet shorter than an IPv4 header")
	ErrBadMTU        = errors.New("ipfrag: MTU cannot carry a header and 8 payload bytes")
	ErrNoFragments   = errors.New("ipfrag: nothing to reassemble")
	ErrMixedID       = errors.New("ipfrag: fragments from different datagrams")
	ErrGap           = errors.New("ipfrag: fragment offsets not contiguous")
	ErrNoLast        = errors.New("ipfrag: missing final fragment")
	ErrBadFragHeader = errors.New("ipfrag: invalid fragment header")
)

// Fragment splits a complete IPv4 packet into fragments that fit mtu
// bytes each.  Payload splits on 8-byte boundaries as IPv4 requires;
// every fragment carries a copy of the header with its offset, MF flag,
// length and header checksum set.
func Fragment(pkt []byte, mtu int) ([][]byte, error) {
	if len(pkt) < tcpip.IPv4HeaderLen {
		return nil, ErrShortPacket
	}
	maxData := (mtu - tcpip.IPv4HeaderLen) &^ 7
	if maxData < 8 {
		return nil, ErrBadMTU
	}
	payload := pkt[tcpip.IPv4HeaderLen:]
	if len(payload) <= maxData {
		out := append([]byte(nil), pkt...)
		return [][]byte{out}, nil
	}
	var frags [][]byte
	for off := 0; off < len(payload); off += maxData {
		end := off + maxData
		if end > len(payload) {
			end = len(payload)
		}
		frag := make([]byte, tcpip.IPv4HeaderLen+end-off)
		copy(frag, pkt[:tcpip.IPv4HeaderLen])
		copy(frag[tcpip.IPv4HeaderLen:], payload[off:end])

		var h tcpip.IPv4Header
		if err := h.DecodeFromBytes(frag); err != nil {
			return nil, err
		}
		h.TotalLength = uint16(len(frag))
		h.FragOffset = uint16(off / 8)
		h.Flags &^= 1 // clear MF
		if end < len(payload) {
			h.Flags |= 1 // more fragments
		}
		h.ComputeChecksum()
		h.SerializeTo(frag)
		frags = append(frags, frag)
	}
	return frags, nil
}

// Reassemble reconstructs the original packet from its fragments (any
// order).  It enforces the IPv4 invariants: one datagram identity,
// contiguous offsets from zero, exactly one final fragment, and valid
// per-fragment header checksums.
func Reassemble(frags [][]byte) ([]byte, error) {
	return AppendReassembled(nil, append([][]byte(nil), frags...))
}

// AppendReassembled is Reassemble appending the packet to dst, for a
// caller that reassembles many datagrams into one reused buffer.  It
// sorts frags by offset in place; on error dst is returned unextended.
func AppendReassembled(dst []byte, frags [][]byte) ([]byte, error) {
	if len(frags) == 0 {
		return dst, ErrNoFragments
	}
	var first tcpip.IPv4Header
	for i, f := range frags {
		var h tcpip.IPv4Header
		if err := h.DecodeFromBytes(f); err != nil {
			return dst, err
		}
		if int(h.TotalLength) != len(f) || !inet.Verify(f[:tcpip.IPv4HeaderLen]) {
			return dst, ErrBadFragHeader
		}
		if i == 0 {
			first = h
		}
	}
	for _, f := range frags[1:] {
		h := header(f)
		if h.ID != first.ID || h.Src != first.Src || h.Dst != first.Dst || h.Protocol != first.Protocol {
			return dst, ErrMixedID
		}
	}
	base := len(dst)
	dst = append(dst, frags[0][:tcpip.IPv4HeaderLen]...)
	// Sort by offset (stable insertion; fragment counts are tiny).
	for i := 1; i < len(frags); i++ {
		for j := i; j > 0 && header(frags[j]).FragOffset < header(frags[j-1]).FragOffset; j-- {
			frags[j], frags[j-1] = frags[j-1], frags[j]
		}
	}
	for i, f := range frags {
		h := header(f)
		if int(h.FragOffset)*8 != len(dst)-base-tcpip.IPv4HeaderLen {
			return dst[:base], ErrGap
		}
		last := i == len(frags)-1
		if (h.Flags&1 == 0) != last {
			return dst[:base], ErrNoLast
		}
		dst = append(dst, f[tcpip.IPv4HeaderLen:]...)
	}
	h := first
	h.TotalLength = uint16(len(dst) - base)
	h.Flags &^= 1
	h.FragOffset = 0
	h.ComputeChecksum()
	h.SerializeTo(dst[base:])
	return dst, nil
}

// header decodes a fragment AppendReassembled has already validated.
func header(f []byte) tcpip.IPv4Header {
	var h tcpip.IPv4Header
	_ = h.DecodeFromBytes(f) // cannot fail: the first pass decoded f
	return h
}

// SwapResult tallies the fragment-substitution error model over one
// adjacent packet pair.
type SwapResult struct {
	Substitutions uint64 // same-offset swaps attempted
	Identical     uint64 // swapped fragment was byte-identical (benign)
	Remaining     uint64 // corrupted reassemblies
	Missed        uint64 // corrupted reassemblies the checksum passed
}

// Add accumulates another result.
func (r *SwapResult) Add(o SwapResult) {
	r.Substitutions += o.Substitutions
	r.Identical += o.Identical
	r.Remaining += o.Remaining
	r.Missed += o.Missed
}

// MissRate returns Missed/Remaining.  ok is false when no corrupted
// reassembly remained, so the rate is unknown rather than zero.
func (r SwapResult) MissRate() (rate float64, ok bool) {
	if r.Remaining == 0 {
		return 0, false
	}
	return float64(r.Missed) / float64(r.Remaining), true
}

// SwapPair fragments two adjacent packets at mtu and tries every
// single-fragment same-offset substitution of a packet-2 fragment into
// packet 1 (the ID-collision mis-reassembly).  For each corrupted
// reassembly it asks whether the transport checksum (per opts) still
// verifies.  Swaps of the first fragment replace the TCP header and
// checksum field themselves and are almost always detected; the
// interesting cases are the data-fragment swaps, where the substituted
// bytes land at exactly the offset they came from.
func SwapPair(p1, p2 []byte, mtu int, opts tcpip.BuildOptions) (SwapResult, error) {
	var res SwapResult
	f1, err := Fragment(p1, mtu)
	if err != nil {
		return res, err
	}
	f2, err := Fragment(p2, mtu)
	if err != nil {
		return res, err
	}
	n := len(f1)
	if len(f2) < n {
		n = len(f2)
	}
	for i := 0; i < n; i++ {
		// The substituted fragment must be interchangeable at the IP
		// level: same offset and same length (the final fragments of
		// different-size packets are not).
		if !sameFragShape(f1[i], f2[i]) {
			continue
		}
		res.Substitutions++
		mixed := make([][]byte, len(f1))
		copy(mixed, f1)
		// Patch packet 2's fragment to carry packet 1's ID, as an
		// ID-collision would present it.
		patched := append([]byte(nil), f2[i]...)
		var h1, h2 tcpip.IPv4Header
		h1.DecodeFromBytes(f1[i])
		h2.DecodeFromBytes(patched)
		h2.ID = h1.ID
		h2.ComputeChecksum()
		h2.SerializeTo(patched)
		mixed[i] = patched

		out, err := Reassemble(mixed)
		if err != nil {
			continue // rejected before any checksum
		}
		if bytes.Equal(out, p1) {
			res.Identical++
			continue
		}
		res.Remaining++
		if tcpip.VerifyPacket(out, opts) {
			res.Missed++
		}
	}
	return res, nil
}

// sameFragShape reports whether two fragments occupy the same offset
// with the same length.
func sameFragShape(a, b []byte) bool {
	var ha, hb tcpip.IPv4Header
	if ha.DecodeFromBytes(a) != nil || hb.DecodeFromBytes(b) != nil {
		return false
	}
	return ha.FragOffset == hb.FragOffset && len(a) == len(b)
}
