package netsim

import (
	"fmt"
	"math/bits"
)

// ErrClassTally histograms the *structure* of the corrupted end-to-end
// deliveries one channel produced: the XOR difference between the
// received candidate and the sent PDU it claims to be, bucketed the way
// CRC algebra buckets error polynomials — by Hamming weight for sparse
// flips, by bit span for bursts.  This is the measured error
// distribution of the run: the polynomial census weights each
// candidate generator's analytic per-class coverage (A2/A3 spectra,
// burst fractions, collision floor) by these frequencies to get a
// corpus-shaped P_ud instead of the uniform assumption.
//
// Classification is a pure function of (received, sent) — no RNG, no
// allocation, and a scan of only the cells a channel changed — so the
// engine's worker-count byte-identity and zero-steady-state-allocation
// contracts are untouched.
type ErrClassTally struct {
	// LenChange counts deliveries whose byte length differs from the
	// sent PDU — splices and concatenations, where bit-position algebra
	// does not apply directly.
	LenChange uint64
	// Weight1..Weight3 count equal-length deliveries whose XOR
	// difference has Hamming weight exactly 1, 2 or 3.
	Weight1 uint64
	Weight2 uint64
	Weight3 uint64
	// Burst counts equal-length deliveries of weight ≥ 4 whose differing
	// bits all fall within a 64-bit span — the cell- and byte-burst
	// regime every CRC of width ≥ the span detects unconditionally.
	Burst uint64
	// Multi counts everything else: heavy, spread-out damage
	// (multi-burst, whole-cell substitution at equal length).
	Multi uint64
}

// bitDiff accumulates the XOR difference between a received candidate
// and the equal-length sent PDU it claims, over the spans where they
// may differ: the first and last differing bit, counted from the PDU's
// first bit, and the Hamming weight.
type bitDiff struct{ first, last, weight int }

// add takes in the span of recv and sent starting at byte off of the
// PDU.  Spans must come in ascending order of off.
func (d *bitDiff) add(off int, recv, sent []byte) {
	for i := range recv {
		x := recv[i] ^ sent[i]
		if x == 0 {
			continue
		}
		if d.weight == 0 {
			d.first = (off+i)*8 + bits.LeadingZeros8(x)
		}
		d.last = (off+i)*8 + 7 - bits.TrailingZeros8(x)
		d.weight += bits.OnesCount8(x)
	}
}

// note classifies one corrupted equal-length delivery by its
// difference from the sent PDU; callers only invoke it when the two
// differ, and count a length change as LenChange.
func (e *ErrClassTally) note(d bitDiff) {
	switch {
	case d.weight == 1:
		e.Weight1++
	case d.weight == 2:
		e.Weight2++
	case d.weight == 3:
		e.Weight3++
	case d.last-d.first+1 <= 64:
		e.Burst++
	default:
		e.Multi++
	}
}

func (e *ErrClassTally) merge(o *ErrClassTally) {
	e.LenChange += o.LenChange
	e.Weight1 += o.Weight1
	e.Weight2 += o.Weight2
	e.Weight3 += o.Weight3
	e.Burst += o.Burst
	e.Multi += o.Multi
}

// Total is the number of corrupted deliveries classified.
func (e ErrClassTally) Total() uint64 {
	return e.LenChange + e.Weight1 + e.Weight2 + e.Weight3 + e.Burst + e.Multi
}

// Line renders the histogram as a greppable pin line fragment.
func (e ErrClassTally) Line() string {
	return fmt.Sprintf("len=%d w1=%d w2=%d w3=%d burst=%d multi=%d",
		e.LenChange, e.Weight1, e.Weight2, e.Weight3, e.Burst, e.Multi)
}

// ErrClasses sums the per-channel error-structure histograms — the
// measured error mix of the whole run.
func (t *Tally) ErrClasses() ErrClassTally {
	var sum ErrClassTally
	for i := range t.Channels {
		sum.merge(&t.Channels[i].ErrClass)
	}
	return sum
}
