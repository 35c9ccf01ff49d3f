package census

import (
	"math"

	"realsum/internal/crc"
	"realsum/internal/gf2poly"
	"realsum/internal/netsim"
)

const (
	// BlockBits is the reference message length both lanes normalize to:
	// 2048 bits, the code-block scale the 5G NR selection papers rank
	// candidates at, and the order of the paper's 256-byte TCP segments.
	BlockBits = 2048

	// OrdHorizon bounds the order of x the report prints.  2^24 covers
	// the full period of every generator up to width 24, so the NR CRC24
	// family reports exact orders; the 32-bit generators' orders exceed
	// it and report 0 ("beyond horizon"), which at BlockBits is all the
	// census needs to know.  It no longer bounds the cost: XOrder takes
	// about √OrdHorizon = 4096 steps, so a wider horizon would be cheap
	// but would change the printed orders.
	OrdHorizon = 1 << 24

	// BSCFlipP is the bit-flip probability of the binary symmetric
	// channel the analytic bound is evaluated at.
	BSCFlipP = 1e-4
)

// Analysis is the analytic lane's verdict on one generator: the algebra
// of §2 computed, not quoted, at the census's reference length.
type Analysis struct {
	// Ord is the multiplicative order of x mod the generator — the 2-bit
	// error coverage horizon — or 0 if it exceeds OrdHorizon.
	Ord uint64
	// OddAll reports (x+1) | g: every odd-weight error detected.
	OddAll bool
	// Irreducible reports whether the generator is irreducible.
	Irreducible bool
	// A2 and A3 count the weight-2 and weight-3 error polynomials over
	// BlockBits positions the generator fails to detect.
	A2, A3 uint64
	// BurstResidual is the undetected fraction for the ≥4-weight,
	// ≤64-bit-span burst class (the measured mix's burst bucket): 0 when
	// the width covers the span, else ≈2^-width.
	BurstResidual float64
	// UniformP is the uniform-data collision floor, 2^-width.
	UniformP float64
	// BSCP is the low-weight truncation of P_ud on a BSC(BSCFlipP) at
	// BlockBits: A2·p²(1−p)^(L−2) + A3·p³(1−p)^(L−3).  Zero means "below
	// the weight-4 terms", not literally zero.
	BSCP float64
}

// Analyze computes the analytic lane for one candidate's parameters.
func Analyze(p crc.Params) Analysis {
	g := p.Generator()
	a := Analysis{
		Ord:         gf2poly.XOrder(g, OrdHorizon),
		OddAll:      gf2poly.DetectsOddErrors(g),
		Irreducible: gf2poly.IsIrreducible(g),
		A2:          gf2poly.UndetectedWeight2(g, BlockBits),
		UniformP:    math.Ldexp(1, -int(p.Width)),
	}
	if a.OddAll {
		// Odd-weight errors can never be codewords: A3 = 0 by parity.
		a.A3 = 0
	} else {
		a.A3 = gf2poly.UndetectedWeight3(g, BlockBits)
	}
	if int(p.Width) >= 64 {
		a.BurstResidual = 0
	} else {
		a.BurstResidual = gf2poly.UndetectedBurstFraction(g, 65)
	}
	pf := BSCFlipP
	l := float64(BlockBits)
	a.BSCP = float64(a.A2)*pf*pf*math.Pow(1-pf, l-2) +
		float64(a.A3)*pf*pf*pf*math.Pow(1-pf, l-3)
	return a
}

// MeasuredP reweights the analytic per-class coverage by a measured
// error-class mix: weight-1 errors are always caught, weight-2/3 flips
// collide at the spectrum rate over uniformly placed positions, short
// bursts at the burst residual, and structureless damage (splices,
// multi-burst) at the uniform floor.  With an empty mix there is no
// evidence to reweight by and the uniform floor is returned unchanged.
func (a Analysis) MeasuredP(mix netsim.ErrClassTally) float64 {
	n := mix.Total()
	if n == 0 {
		return a.UniformP
	}
	l := float64(BlockBits)
	c2 := l * (l - 1) / 2
	c3 := c2 * (l - 2) / 3
	sum := float64(mix.Weight2)*(float64(a.A2)/c2) +
		float64(mix.Weight3)*(float64(a.A3)/c3) +
		float64(mix.Burst)*a.BurstResidual +
		float64(mix.LenChange+mix.Multi)*a.UniformP
	return sum / float64(n)
}
