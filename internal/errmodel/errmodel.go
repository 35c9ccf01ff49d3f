// Package errmodel implements the alternative error models §7 of the
// paper discusses alongside the splice model, as netsim's fault
// channels draw them: solid burst errors, independent bit flips, and
// record-level misordering/misinsertion (the ATM cell faults, at
// Unit = 48).
package errmodel

import (
	"bytes"
	"math/rand/v2"
)

// Model damages a buffer in place and reports what it did.
type Model interface {
	// CorruptInPlace damages data.  It must change at least one byte,
	// except for the record-level models (Reorder, Misinsert), which can
	// only guarantee a change when the stream holds two differing
	// records.  The damage is a function of data and rng's state alone.
	CorruptInPlace(rng *rand.Rand, data []byte)
	// Name identifies the model in reports.
	Name() string
}

// SolidBurst inverts every bit of an exact Bits-long span at a random
// bit offset — the solid-burst channel model, where the medium inverts
// a contiguous region outright.  Solid bursts are the fault the
// ones-complement sum is classically weakest against on real data: a
// solid burst whose length is a multiple of 16 lying inside a run of
// 0x00 (or 0xFF) bytes leaves the TCP checksum unchanged, because the
// flipped span contributes exactly 0xFFFF ≡ 0 to the sum at any bit
// alignment, while any CRC of width ≥ Bits detects it unconditionally.
type SolidBurst struct {
	// Bits is the burst length in bits (≥ 1).
	Bits int
}

// Name implements Model.
func (s SolidBurst) Name() string { return "solidburst" }

// CorruptInPlace implements Model.
func (s SolidBurst) CorruptInPlace(rng *rand.Rand, out []byte) {
	n := len(out) * 8
	if s.Bits < 1 || s.Bits > n {
		panic("errmodel: burst length out of range")
	}
	start := rng.IntN(n - s.Bits + 1)
	for i := start; i < start+s.Bits; i++ {
		out[i/8] ^= 0x80 >> uint(i%8)
	}
}

// BitFlips flips K distinct random bits.
type BitFlips struct {
	K int
}

// Name implements Model.
func (f BitFlips) Name() string { return "bitflips" }

// inPlaceFlipMax bounds the stack-resident duplicate-tracking array of
// CorruptInPlace; larger K falls back to a map.
const inPlaceFlipMax = 64

// CorruptInPlace implements Model.  It draws candidate bits until K
// distinct ones are flipped, tracking the chosen bits in a stack array
// for K ≤ 64 so the common small-K case allocates nothing.
func (f BitFlips) CorruptInPlace(rng *rand.Rand, out []byte) {
	n := len(out) * 8
	if f.K < 1 || f.K > n {
		panic("errmodel: flip count out of range")
	}
	if f.K > inPlaceFlipMax {
		seen := make(map[int]bool, f.K)
		for len(seen) < f.K {
			bit := rng.IntN(n)
			if seen[bit] {
				continue
			}
			seen[bit] = true
			out[bit/8] ^= 0x80 >> uint(bit%8)
		}
		return
	}
	var picked [inPlaceFlipMax]int
	count := 0
	for count < f.K {
		bit := rng.IntN(n)
		dup := false
		for i := 0; i < count; i++ {
			if picked[i] == bit {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		picked[count] = bit
		count++
		out[bit/8] ^= 0x80 >> uint(bit%8)
	}
}

// Records is a sequence of records a record-level model rearranges:
// Reorder and Misinsert only compare records and move them whole, so
// they run the same over bytes in place (CorruptInPlace) and over
// references to records kept elsewhere (CorruptRecords), with the same
// rng draws.
type Records interface {
	Len() int
	// Size is the byte length of one record.
	Size() int
	// Equal reports whether records i and j hold the same bytes.
	Equal(i, j int) bool
	// Swap exchanges records i and j.
	Swap(i, j int)
	// Copy overwrites record dst with record src.
	Copy(dst, src int)
}

// RecordModel is a Model whose damage moves whole records.
type RecordModel interface {
	Model
	CorruptRecords(rng *rand.Rand, r Records)
}

// byteRecords is a buffer cut into unit-byte records; trailing bytes
// beyond the last whole record are not a record.
type byteRecords struct {
	data []byte
	unit int
}

func (b byteRecords) rec(i int) []byte    { return b.data[i*b.unit : (i+1)*b.unit] }
func (b byteRecords) Len() int            { return len(b.data) / b.unit }
func (b byteRecords) Size() int           { return b.unit }
func (b byteRecords) Equal(i, j int) bool { return bytes.Equal(b.rec(i), b.rec(j)) }
func (b byteRecords) Copy(dst, src int)   { copy(b.rec(dst), b.rec(src)) }
func (b byteRecords) Swap(i, j int) {
	x, y := b.rec(i), b.rec(j)
	for k := range x {
		x[k], y[k] = y[k], x[k]
	}
}

// Reorder swaps two adjacent Unit-byte records — misordering at the
// record granularity the caller chooses (Unit = 48 models ATM cell
// payload missequencing, §7's cell misordering fault).  It scans from a
// random record for an adjacent pair that differ, so the damage is real
// whenever any two adjacent records differ; a stream of identical
// records (the one stream a reorder genuinely cannot damage) is left
// unchanged.  Trailing bytes beyond the last whole record never move.
type Reorder struct {
	// Unit is the record size in bytes (≥ 1).
	Unit int
}

// Name implements Model.
func (r Reorder) Name() string { return "reorder" }

// CorruptInPlace implements Model.
func (r Reorder) CorruptInPlace(rng *rand.Rand, out []byte) {
	if r.Unit < 1 {
		panic("errmodel: reorder unit out of range")
	}
	reorder(rng, byteRecords{out, r.Unit})
}

// CorruptRecords implements RecordModel.  recs must be Unit-byte
// records.
func (r Reorder) CorruptRecords(rng *rand.Rand, recs Records) {
	checkUnit("reorder", r.Unit, recs)
	reorder(rng, recs)
}

// checkUnit panics unless recs are records of the unit bytes a model's
// Unit names.
func checkUnit(model string, unit int, recs Records) {
	if unit < 1 || recs.Size() != unit {
		panic("errmodel: " + model + " unit does not match the record size")
	}
}

func reorder[R Records](rng *rand.Rand, recs R) {
	n := recs.Len()
	if n < 2 {
		return
	}
	start := rng.IntN(n - 1)
	for k := 0; k < n-1; k++ {
		i := start + k
		if i >= n-1 {
			i -= n - 1
		}
		if !recs.Equal(i, i+1) {
			recs.Swap(i, i+1)
			return
		}
	}
}

// Misinsert overwrites one record with a copy of another — AAL5 cell
// misinsertion, where a cell from elsewhere in the stream is delivered
// in place of the right one.  The target record is uniform; the source
// is the first record (scanning from a random start) whose bytes differ
// from the target, so the damage is real whenever the stream holds two
// differing records; otherwise the data is left unchanged.
type Misinsert struct {
	// Unit is the record size in bytes (≥ 1).
	Unit int
}

// Name implements Model.
func (m Misinsert) Name() string { return "misinsert" }

// CorruptInPlace implements Model.
func (m Misinsert) CorruptInPlace(rng *rand.Rand, out []byte) {
	if m.Unit < 1 {
		panic("errmodel: misinsert unit out of range")
	}
	misinsert(rng, byteRecords{out, m.Unit})
}

// CorruptRecords implements RecordModel.  recs must be Unit-byte
// records.
func (m Misinsert) CorruptRecords(rng *rand.Rand, recs Records) {
	checkUnit("misinsert", m.Unit, recs)
	misinsert(rng, recs)
}

func misinsert[R Records](rng *rand.Rand, recs R) {
	n := recs.Len()
	if n < 2 {
		return
	}
	j := rng.IntN(n)
	start := rng.IntN(n)
	for k := 0; k < n; k++ {
		i := start + k
		if i >= n {
			i -= n
		}
		if i != j && !recs.Equal(i, j) {
			recs.Copy(j, i)
			return
		}
	}
}
