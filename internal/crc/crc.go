// Package crc implements a generic cyclic-redundancy-check engine over
// GF(2) for any width from 1 to 64 bits, parameterized in the Rocksoft
// model (width, polynomial, initial value, input/output reflection,
// final XOR).  It provides a bitwise reference implementation, a
// table-driven fast path, CRC combination for concatenated blocks, and a
// catalog of the algorithms the paper uses or mentions: CRC-32 (the
// AAL5/IEEE 802.3 polynomial), CRC-10 (the ATM OAM polynomial), the
// CRC-16 family, and the CRC-8 HEC of the ATM cell header.
//
// Bulk input dispatches through an interchangeable kernel layer
// (kernel.go): byte-at-a-time scalar, slicing-by-8, the table-free
// chorba fold and the wide-word nguyen recurrence.  New verifies each
// candidate against the scalar oracle and races the survivors, so
// callers get the fastest correct engine automatically; SetKernel pins
// one on a table for reproducible measurement.
//
// The CRC-32 path is verified bit-for-bit against the standard library's
// hash/crc32 and against the published catalog check values.
package crc

import "fmt"

// Params describes a CRC algorithm in the Rocksoft model.
type Params struct {
	// Name identifies the algorithm, e.g. "CRC-32".
	Name string
	// Width is the register size in bits, 1..64.
	Width uint8
	// Poly is the generator polynomial in normal (MSB-first)
	// representation without the implicit x^Width term.
	Poly uint64
	// Init is the initial register value (unreflected convention).
	Init uint64
	// RefIn reflects each input byte before processing.
	RefIn bool
	// RefOut reflects the final register before XorOut.
	RefOut bool
	// XorOut is XORed into the (possibly reflected) register to produce
	// the final CRC.
	XorOut uint64
	// Check is the CRC of the ASCII bytes "123456789", used to validate
	// the implementation against the published catalog (0 if unknown).
	Check uint64
}

func (p Params) String() string { return p.Name }

// Mask returns the low-Width-bits mask for p.
func (p Params) Mask() uint64 {
	if p.Width == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << p.Width) - 1
}

// Reflect reverses the low n bits of v; bits above n must be zero.
func Reflect(v uint64, n uint8) uint64 {
	var r uint64
	for i := uint8(0); i < n; i++ {
		r = r<<1 | v&1
		v >>= 1
	}
	return r
}

// bitwiseUpdate advances an unreflected, right-aligned register over
// data one bit at a time — the transparent reference implementation the
// table-driven path is validated against.  It works for any width ≥ 1.
func (p Params) bitwiseUpdate(reg uint64, data []byte) uint64 {
	mask := p.Mask()
	for _, b := range data {
		if p.RefIn {
			b = byte(Reflect(uint64(b), 8))
		}
		for bit := 7; bit >= 0; bit-- {
			in := uint64(b>>uint(bit)) & 1
			hi := (reg >> (p.Width - 1)) & 1
			reg = (reg << 1) & mask
			if hi^in == 1 {
				reg ^= p.Poly
			}
		}
	}
	return reg
}

// finalize converts a raw unreflected register value into the published
// CRC value (output reflection then final XOR).
func (p Params) finalize(reg uint64) uint64 {
	if p.RefOut {
		reg = Reflect(reg, p.Width)
	}
	return (reg ^ p.XorOut) & p.Mask()
}

// unfinalize inverts finalize.
func (p Params) unfinalize(crc uint64) uint64 {
	reg := (crc ^ p.XorOut) & p.Mask()
	if p.RefOut {
		reg = Reflect(reg, p.Width)
	}
	return reg
}

// BitwiseChecksum computes the CRC of data using the bitwise reference
// algorithm.  Use Table for anything performance-sensitive.
func (p Params) BitwiseChecksum(data []byte) uint64 {
	return p.finalize(p.bitwiseUpdate(p.Init&p.Mask(), data))
}

// Table is a 256-entry table-driven CRC engine for one Params.
//
// For reflected-input algorithms the register is kept in reflected form
// (the usual right-shift formulation); otherwise the register is kept
// left-aligned in a 64-bit word so any width from 1 to 64 shares one
// code path.
type Table struct {
	params Params
	tab    [256]uint64
	shift  uint8 // 64 − Width, for the left-aligned (non-reflected) path
	slice  *slicing
	sp     *sparseKernel // fold geometry, nil without a catalogued sparse multiple
	kern   kernelID      // selected bulk engine (see kernel.go)
}

// New builds the lookup table for p.  It panics if p.Width is outside
// 1..64 or if p.RefIn ≠ p.RefOut (no catalogued algorithm mixes input
// and output reflection, and the engine does not support it).
func New(p Params) *Table {
	if p.Width < 1 || p.Width > 64 {
		panic(fmt.Sprintf("crc: invalid width %d for %s", p.Width, p.Name))
	}
	if p.RefIn != p.RefOut {
		panic(fmt.Sprintf("crc: %s mixes RefIn and RefOut; unsupported", p.Name))
	}
	t := &Table{params: p, shift: 64 - p.Width}
	if p.RefIn {
		rpoly := Reflect(p.Poly&p.Mask(), p.Width)
		for b := 0; b < 256; b++ {
			reg := uint64(b)
			for i := 0; i < 8; i++ {
				if reg&1 != 0 {
					reg = reg>>1 ^ rpoly
				} else {
					reg >>= 1
				}
			}
			t.tab[b] = reg
		}
	} else {
		lpoly := (p.Poly & p.Mask()) << t.shift
		for b := 0; b < 256; b++ {
			reg := uint64(b) << 56
			for i := 0; i < 8; i++ {
				if reg&(1<<63) != 0 {
					reg = reg<<1 ^ lpoly
				} else {
					reg <<= 1
				}
			}
			t.tab[b] = reg
		}
	}
	t.slice = t.buildSlicing()
	t.sp = sparseFor(p)
	t.kern = t.selectKernel()
	return t
}

// TryNew is New with errors instead of panics, for callers (census
// candidate slates, fuzzers) that construct tables from untrusted or
// generated Params.
func TryNew(p Params) (t *Table, err error) {
	if p.Width < 1 || p.Width > 64 {
		return nil, fmt.Errorf("crc: invalid width %d for %q", p.Width, p.Name)
	}
	if p.RefIn != p.RefOut {
		return nil, fmt.Errorf("crc: %q mixes RefIn and RefOut; unsupported", p.Name)
	}
	if p.Poly&^p.Mask() != 0 {
		return nil, fmt.Errorf("crc: %q poly %#x exceeds width %d", p.Name, p.Poly, p.Width)
	}
	if p.Poly&1 == 0 {
		return nil, fmt.Errorf("crc: %q poly %#x has no +1 term; register bits would be unreachable", p.Name, p.Poly)
	}
	return New(p), nil
}

// Params returns the algorithm description the table was built from.
func (t *Table) Params() Params { return t.params }

// update advances a raw register (in the table's internal alignment)
// through the selected bulk kernel; inputs below a kernel's reach fall
// back to slicing-by-8, and sub-word tails to the scalar loop.
func (t *Table) update(reg uint64, data []byte) uint64 {
	return t.kernelUpdate(t.kern, reg, data)
}

// updateScalar is the one-byte-per-step reference loop.
func (t *Table) updateScalar(reg uint64, data []byte) uint64 {
	tab := &t.tab
	if t.params.RefIn {
		for _, b := range data {
			reg = tab[byte(reg)^b] ^ reg>>8
		}
		return reg
	}
	for _, b := range data {
		reg = tab[byte(reg>>56)^b] ^ reg<<8
	}
	return reg
}

// initReg returns the initial raw register in internal alignment.
func (t *Table) initReg() uint64 {
	p := t.params
	if p.RefIn {
		return Reflect(p.Init&p.Mask(), p.Width)
	}
	return (p.Init & p.Mask()) << t.shift
}

// finalizeReg converts an internal raw register to the published value.
func (t *Table) finalizeReg(reg uint64) uint64 {
	p := t.params
	if p.RefIn {
		// Register is already reflected; RefOut is true by construction.
		return (reg ^ p.XorOut) & p.Mask()
	}
	return (reg>>t.shift ^ p.XorOut) & p.Mask()
}

// unfinalizeReg inverts finalizeReg.
func (t *Table) unfinalizeReg(crc uint64) uint64 {
	p := t.params
	if p.RefIn {
		return (crc ^ p.XorOut) & p.Mask()
	}
	return ((crc ^ p.XorOut) & p.Mask()) << t.shift
}

// Checksum computes the CRC of data.
func (t *Table) Checksum(data []byte) uint64 {
	return t.finalizeReg(t.update(t.initReg(), data))
}

// Update extends a previously computed CRC with more data, as if the
// concatenation had been checksummed in one call.
func (t *Table) Update(crc uint64, data []byte) uint64 {
	return t.finalizeReg(t.update(t.unfinalizeReg(crc), data))
}

// RawInit returns the initial raw register state, for callers (like the
// splice enumerator) that thread a register through branching
// computations as a plain value.
func (t *Table) RawInit() uint64 { return t.initReg() }

// RawUpdate advances a raw register over data.
func (t *Table) RawUpdate(reg uint64, data []byte) uint64 { return t.update(reg, data) }

// RawCRC converts a raw register into the published CRC value.
func (t *Table) RawCRC(reg uint64) uint64 { return t.finalizeReg(reg) }

// Digest is a streaming CRC accumulator.
type Digest struct {
	t   *Table
	reg uint64
	n   int
}

// NewDigest returns a streaming digest over t's algorithm.
func (t *Table) NewDigest() *Digest { return &Digest{t: t, reg: t.initReg()} }

// Reset restores the digest to its initial state.
func (d *Digest) Reset() { d.reg, d.n = d.t.initReg(), 0 }

// Write absorbs data.  It never fails.
func (d *Digest) Write(data []byte) (int, error) {
	d.reg = d.t.update(d.reg, data)
	d.n += len(data)
	return len(data), nil
}

// CRC returns the CRC of everything written so far.
func (d *Digest) CRC() uint64 { return d.t.finalizeReg(d.reg) }

// Len returns the number of bytes written.
func (d *Digest) Len() int { return d.n }
