package algo

import (
	"fmt"

	"realsum/internal/crc"
	"realsum/internal/fletcher"
	"realsum/internal/onescomp"
)

// The three Stride shapes behind the twelve registry algorithms: the
// TCP sum's ones-complement addition, the Fletcher-family (A, B) pair
// and the CRC register.

func checkStride(name string, n int) {
	if n <= 0 || n%2 != 0 {
		panic(fmt.Sprintf("algo: %s stride %d is not positive and even", name, n))
	}
}

func (tcpAlgo) Stride(n int) Stride {
	checkStride("tcp", n)
	return tcpStride{}
}

func (f fletcherAlgo) Stride(n int) Stride {
	checkStride(f.name, n)
	return pairStride{mod: uint64(f.m), words: uint64(n) % uint64(f.m), unit: 1, shift: 8}
}

func (fletcher32Algo) Stride(n int) Stride {
	checkStride("fletcher32", n)
	return pairStride{mod: 65535, words: uint64(n/2) % 65535, unit: 2, shift: 16}
}

// Adler-32 is Fletcher's byte pair mod 65521 with A seeded to 1.
func (adlerAlgo) Stride(n int) Stride {
	checkStride("adler32", n)
	return pairStride{mod: 65521, start: 1, words: uint64(n) % 65521, unit: 1, shift: 16}
}

func (c crcAlgo) Stride(n int) Stride {
	checkStride(c.name, n)
	s := crcStride{t: c.t, op: c.t.NewShift(n), init: c.t.RawInit()}
	if n <= crc.MaxDeltaLen {
		s.delta = c.t.NewDelta(n)
	}
	return s
}

// tcpStride: a state is the ones-complement sum so far.  Blocks start at
// even offsets, so partials add without the odd-offset byte swap.
type tcpStride struct{}

func (tcpStride) Partial(block []byte) uint64 { return uint64(onescomp.SumBytes(block)) }
func (s tcpStride) Patch(_ uint64, _ crc.Nibbles, damaged []byte) uint64 {
	return s.Partial(damaged)
}
func (tcpStride) Start() uint64 { return 0 }
func (tcpStride) Fold(state uint64, parts []uint64) uint64 {
	// Each partial is below 2^16, so the accumulator cannot overflow
	// before a message of 2^48 blocks.
	for _, p := range parts {
		state += p
	}
	return uint64(onescomp.Fold(state))
}
func (tcpStride) Tail(state uint64, data []byte) uint64 {
	return uint64(onescomp.Add(uint16(state), onescomp.SumBytes(data)))
}
func (tcpStride) Sum(state uint64) uint64 { return uint64(onescomp.Neg(uint16(state))) }

// pairStride: a state packs the Fletcher accumulators as A | B<<32, both
// reduced mod mod; a partial packs a block's pair like the checksum,
// B<<shift | A.  Appending a block of w words with pair (a, b) moves
// every earlier word w positions from the end: B' = B + A·w + b,
// A' = A + a (§5.2).
type pairStride struct {
	mod   uint64
	start uint64 // A of the empty message (1 for Adler-32)
	words uint64 // words per block, mod mod
	unit  int    // bytes per word: 1, or 2 for Fletcher-32
	shift uint   // canonical value = B<<shift | A
}

func (s pairStride) Partial(block []byte) uint64 {
	if s.unit == 2 {
		p := fletcher.Sum32(block)
		return uint64(p.B)<<s.shift | uint64(p.A)
	}
	p := fletcher.Mod(s.mod).Sum(block)
	return uint64(p.B)<<s.shift | uint64(p.A)
}

func (s pairStride) Patch(_ uint64, _ crc.Nibbles, damaged []byte) uint64 {
	return s.Partial(damaged)
}

func (s pairStride) Start() uint64 { return s.start }

func (s pairStride) Fold(state uint64, parts []uint64) uint64 {
	a, b := state&0xFFFFFFFF, state>>32
	mask := uint64(1)<<s.shift - 1
	for len(parts) > 0 {
		// Reduce every 1024 blocks: A stays below 2^27 and B below 2^54.
		chunk := parts[:min(len(parts), 1024)]
		parts = parts[len(chunk):]
		for _, p := range chunk {
			b += a*s.words + p>>s.shift
			a += p & mask
		}
		a %= s.mod
		b %= s.mod
	}
	return a | b<<32
}

// Tail appends data as the final bytes; Fletcher-32 zero-pads an odd
// final byte, as fletcher.Sum32 does, so the pad is only right at the end.
func (s pairStride) Tail(state uint64, data []byte) uint64 {
	a, b := state&0xFFFFFFFF, state>>32
	p := s.Partial(data)
	w := uint64((len(data)+s.unit-1)/s.unit) % s.mod
	b = (b + a*w + p>>s.shift) % s.mod
	a = (a + p&(uint64(1)<<s.shift-1)) % s.mod
	return a | b<<32
}

func (s pairStride) Sum(state uint64) uint64 {
	return state>>32<<s.shift | state&0xFFFFFFFF
}

// crcStride: a state is the raw register.  A block's partial is its
// register from zero (crc.Table.RawPartial, in the low w bits), and one
// precomputed shift past n zero bytes moves the register over a block:
// reg' = shift(reg) ⊕ partial (crc.Shift.Fold).  A damaged block's
// partial is patched from the difference (crc.Delta).
type crcStride struct {
	t     *crc.Table
	op    *crc.Shift
	delta *crc.Delta
	init  uint64
}

func (s crcStride) Partial(block []byte) uint64 { return s.t.RawPartial(block) }
func (s crcStride) Patch(part uint64, diff crc.Nibbles, _ []byte) uint64 {
	if s.delta == nil {
		panic("algo: CRC stride longer than crc.MaxDeltaLen cannot Patch")
	}
	return s.delta.Patch(part, diff)
}
func (s crcStride) Start() uint64 { return s.init }
func (s crcStride) Fold(state uint64, parts []uint64) uint64 {
	for _, p := range parts {
		state = s.op.Fold(state, p)
	}
	return state
}
func (s crcStride) Tail(state uint64, data []byte) uint64 { return s.t.RawUpdate(state, data) }
func (s crcStride) Sum(state uint64) uint64               { return s.t.RawCRC(state) }
