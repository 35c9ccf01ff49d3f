package crc

import (
	"encoding/binary"
	"math/bits"
)

// This file exposes the affine structure of the raw register update to
// callers that classify many variants of one message — most importantly
// the splice enumerator, which checks hundreds of cell selections per
// packet pair against one AAL5 CRC.
//
// The table update is linear over GF(2) in the pair (register, input):
// for a message M of n bytes,
//
//	update(I, M) = update(I, 0ⁿ) ⊕ update(0, M)
//
// and update(0, M) itself decomposes over any partition of M into
// fixed-position slots, each slot's bytes contributing
// shift(update(0, slot), 8·bytesAfterSlot) independently of what the
// other slots hold.  A caller that precomputes those contributions can
// evaluate the CRC of any slot assignment with one XOR per slot and
// compare against a target register with one integer comparison.  The
// same linearity, in the input alone, lets a caller that knows a
// block's partial re-derive it after a few bytes change (Delta).

// zeroBytes feeds RawShift; the slicing-by-8 kernel consumes it 8 bytes
// per step.
var zeroBytes [512]byte

// RawShift advances a raw register over n zero input bytes — the
// multiply-by-x^(8n) primitive of the affine decomposition.  It is
// RawUpdate(reg, make([]byte, n)) without materializing the zeros, in
// O(n) table steps.  Its only caller is NewShift, which runs it once
// per register bit to build a fixed-n operator; everything that shifts
// per block or per slot applies that operator instead.
func (t *Table) RawShift(reg uint64, n int) uint64 {
	if n < 0 {
		panic("crc: RawShift with negative length")
	}
	for n > len(zeroBytes) {
		reg = t.updateSlicing(reg, zeroBytes[:])
		n -= len(zeroBytes)
	}
	return t.updateSlicing(reg, zeroBytes[:n])
}

// Shift is RawShift(·, n) for one fixed n, precomputed as byte tables.
// The map is linear over GF(2), so the image of a register is the XOR of
// the images of its bytes: one 256-entry table per register byte —
// ⌈w/8⌉ of them — turns a shift past a 48-byte ATM cell into ⌈w/8⌉
// lookups instead of 48 bytes of table steps.  With P = RawUpdate(0, B)
// the partial of an n-byte block B,
//
//	RawUpdate(reg, B) = s.Apply(reg) ⊕ P
//
// which is how a caller folds precomputed per-block partials of a
// fixed-stride message into one register (Fold).  A Shift is immutable
// and safe for concurrent use.
type Shift struct {
	lo    uint // bit offset of the register's lowest occupied byte
	first uint // bit offset of the register's lowest bit
	tabs  [][256]uint64
}

// NewShift precomputes the n-byte shift operator of t's register.
func (t *Table) NewShift(n int) *Shift {
	if n < 0 {
		panic("crc: NewShift with negative length")
	}
	w := uint(t.params.Width)
	nb := (w + 7) / 8
	s := &Shift{tabs: make([][256]uint64, nb)}
	// Register bits [first, first+w) of the 64-bit word are occupied:
	// the low w bits when reflected, the top w bits when left-aligned.
	s.first = t.rawLowBit()
	if !t.params.RefIn {
		s.lo = 64 - 8*nb
	}
	for i := range s.tabs {
		tab := &s.tabs[i]
		for bit := uint(0); bit < 8; bit++ {
			pos := s.lo + 8*uint(i) + bit
			if pos >= s.first && pos < s.first+w {
				tab[1<<bit] = t.RawShift(uint64(1)<<pos, n)
			}
		}
		for b := 1; b < 256; b++ {
			low := b & -b
			tab[b] = tab[low] ^ tab[b^low]
		}
	}
	return s
}

// Apply advances a raw register over the operator's n zero bytes.
func (s *Shift) Apply(reg uint64) uint64 {
	reg >>= s.lo
	var r uint64
	for i := range s.tabs {
		r ^= s.tabs[i][byte(reg)]
		reg >>= 8
	}
	return r
}

// Fold advances reg over one n-byte block whose RawPartial is p: it
// equals RawUpdate(reg, block).
func (s *Shift) Fold(reg, p uint64) uint64 { return s.Apply(reg) ^ p<<s.first }

// RawPartial is RawUpdate(0, block) shifted down to the register's low w
// bits, so a stored partial of a w-bit CRC needs only w bits in either
// register alignment.  Shift.Fold takes it back.
func (t *Table) RawPartial(block []byte) uint64 { return t.updateSlicing(0, block) >> t.rawLowBit() }

// rawLowBit is the bit offset of a raw register's lowest bit in its
// 64-bit word: 0 when reflected, 64 − w when left-aligned.
func (t *Table) rawLowBit() uint {
	if t.params.RefIn {
		return 0
	}
	return uint(t.shift)
}

// RawFromCRC converts a published CRC value back into a raw register in
// the table's internal alignment — the inverse of RawCRC.  It lets a
// caller hoist the output transformation out of a comparison loop:
// instead of finalizing every candidate register, unfinalize the target
// once and compare raw registers directly.
func (t *Table) RawFromCRC(crc uint64) uint64 { return t.unfinalizeReg(crc) }

// SlotContribs fills dst[s], for each of the len(dst) slots, with the
// raw-register contribution of data when its bytes occupy slot s of a
// larger message.  Slot s is followed by len(dst)−1−s further slots of
// stride's length and then by tail's length of message bytes: stride
// and tail are the shift operators past one slot and past the tail.
//
// With I the initial raw register and cell_s the bytes chosen for slot
// s, the register after the whole message is
//
//	RawShift(I, totalLen) ⊕ Σ_s contrib(cell_s, s)
//
// so an enumeration over slot assignments pays one XOR per slot instead
// of one table pass per byte.  Filling the row costs one table pass
// over data and then one Shift.Apply, ⌈w/8⌉ lookups, per slot.
func (t *Table) SlotContribs(dst []uint64, data []byte, stride, tail *Shift) {
	if len(dst) == 0 {
		return
	}
	c := tail.Apply(t.updateSlicing(0, data))
	dst[len(dst)-1] = c
	for s := len(dst) - 2; s >= 0; s-- {
		c = stride.Apply(c)
		dst[s] = c
	}
}

// Delta re-derives an n-byte block's RawPartial after a few of its bytes
// change.  RawPartial is linear over GF(2) in the block, so
//
//	RawPartial(new) = RawPartial(old) ⊕ RawPartial(old ⊕ new)
//
// and the partial of the difference is the XOR of one row entry per
// nonzero nibble of it (Nibbles): the entry for value v in nibble row r
// is the partial of the n-byte block that is zero except for v in the
// low (r even) or high (r odd) half of byte r/2.  A two-bit flip then
// costs at most two lookups instead of a pass over the block.  A Delta
// is immutable and safe for concurrent use.
type Delta struct {
	t    *Table
	rows []uint64 // entry 16r + v
}

// MaxDeltaLen is the longest block a Delta covers: a Nibbles entry
// packs its row, at most 2·MaxDeltaLen − 1, into 12 bits.
const MaxDeltaLen = 2048

// NewDelta precomputes the n-byte contribution rows of t's register: 2n
// rows of 16 entries, 12 KiB for an ATM cell.  n is at most MaxDeltaLen.
func (t *Table) NewDelta(n int) *Delta {
	if n < 0 || n > MaxDeltaLen {
		panic("crc: NewDelta length out of range")
	}
	d := &Delta{t: t, rows: make([]uint64, 32*n)}
	// Byte b followed by j zero bytes leaves RawUpdate(0, [b]) shifted by
	// j bytes, so each byte's rows are the next byte's shifted by one
	// byte.  The work stays in internal alignment until the end.
	var cur [32]uint64
	for e := range cur {
		cur[e] = t.updateScalar(0, []byte{byte(e&15) << (4 * (e >> 4))})
	}
	low := t.rawLowBit()
	for i := n - 1; i >= 0; i-- {
		for e := range cur {
			d.rows[32*i+e] = cur[e] >> low
			cur[e] = t.updateScalar(cur[e], zeroBytes[:1])
		}
	}
	return d
}

// Nibbles lists the nonzero nibbles of the XOR of two blocks of one
// length, as Delta.Patch takes them: entry 16r + v says nibble row r
// (byte r/2, its high half when r is odd) differs by v.
type Nibbles []uint16

// AppendNibbles appends the difference of old and damaged, two blocks
// of one length of at most MaxDeltaLen bytes, to dst, in ascending row
// order.
func AppendNibbles(dst Nibbles, old, damaged []byte) Nibbles {
	if len(old) > MaxDeltaLen {
		panic("crc: AppendNibbles block longer than MaxDeltaLen")
	}
	i := 0
	for ; i+8 <= len(old); i += 8 {
		x := binary.LittleEndian.Uint64(old[i:]) ^ binary.LittleEndian.Uint64(damaged[i:])
		// Nibble k of the little-endian word is row 2i + k.
		for x != 0 {
			k := bits.TrailingZeros64(x) / 4
			dst = append(dst, uint16(2*i+k)<<4|uint16(x>>(4*k)&0xF))
			x &^= 0xF << (4 * k)
		}
	}
	for ; i < len(old); i++ {
		x := old[i] ^ damaged[i]
		if x&0xF != 0 {
			dst = append(dst, uint16(2*i)<<4|uint16(x&0xF))
		}
		if x>>4 != 0 {
			dst = append(dst, uint16(2*i+1)<<4|uint16(x>>4))
		}
	}
	return dst
}

// Patch returns RawPartial(damaged) from p = RawPartial(old), where
// diff is AppendNibbles(nil, old, damaged) for two blocks of the Delta's
// n bytes.  It costs one lookup per nibble of the difference.
func (d *Delta) Patch(p uint64, diff Nibbles) uint64 {
	for _, e := range diff {
		p ^= d.rows[e]
	}
	return p
}
