package dist

import "sort"

// PMF is a probability mass function over ℤ/M — the residue arithmetic
// in which the paper's checksum distributions live.  Normalized
// ones-complement 16-bit sums form ℤ/65535 (0x0000 and 0xFFFF are the
// same residue), each Fletcher component lives in ℤ/255 or ℤ/256, so M
// is a parameter.
type PMF struct {
	M int
	P []float64
}

// NewPMF returns the all-zero mass function over ℤ/m (not a valid
// distribution until filled).
func NewPMF(m int) PMF {
	if m < 1 {
		panic("dist: PMF modulus must be positive")
	}
	return PMF{M: m, P: make([]float64, m)}
}

// FromHistogram converts a 16-bit checksum histogram into a PMF over
// ℤ/65535 (the normalized ones-complement residues).  Bucket 0xFFFF is
// empty by construction.
func FromHistogram(h *Histogram) PMF {
	p := NewPMF(65535)
	if h.total == 0 {
		return p
	}
	t := float64(h.total)
	for v, c := range h.counts {
		if c > 0 {
			p.P[v] += float64(c) / t
		}
	}
	return p
}

// Convolve returns the distribution of X+Y mod M for independent X∼p,
// Y∼q — one step of the §4.4 prediction equation
//
//	P_k(c) = Σ_x P_{k-1}(c−x)·P_1(x)
//
// It runs every block of a Convolution in order; sim.Convolve runs the
// same blocks on a worker pool, with the same result.
func (p PMF) Convolve(q PMF) PMF {
	c := NewConvolution(p, q)
	for b := 0; b < c.Blocks(); b++ {
		c.Block(b)
	}
	return c.PMF()
}

// convBlock is the output block width in bins: 2048 float64s is 16 KiB,
// so a block of the output stays in L1 while every support term streams
// a matching run of p past it.
const convBlock = 2048

// Convolution is one p⊛q computation split into independent output
// blocks.  Block b writes only bins [b·convBlock, (b+1)·convBlock), so
// distinct blocks may run concurrently, in any order, and the result is
// bit-identical to running them serially.
//
// Bit-exactness rests on one rule: every bin adds its terms in
// ascending x, one s += p[c−x]·q[x] rounding step per nonzero q[x],
// starting from 0 — the order of the textbook loop over x.  The kernel
// never reassociates, so neither the block partition nor the worker
// count can change a bit of the output.
type Convolution struct {
	p   []float64
	xs  []int32   // q's support, ascending
	qs  []float64 // q[xs[i]]
	out PMF
}

// NewConvolution prepares p⊛q: it collects q's nonzero support once and
// allocates the output.  It panics if the moduli differ.
func NewConvolution(p, q PMF) Convolution {
	if p.M != q.M {
		panic("dist: Convolve modulus mismatch")
	}
	n := 0
	for _, v := range q.P {
		if v != 0 {
			n++
		}
	}
	c := Convolution{p: p.P, xs: make([]int32, 0, n), qs: make([]float64, 0, n), out: NewPMF(p.M)}
	for x, v := range q.P {
		if v != 0 {
			c.xs = append(c.xs, int32(x))
			c.qs = append(c.qs, v)
		}
	}
	return c
}

// Blocks returns the number of output blocks.
func (c Convolution) Blocks() int { return (c.out.M + convBlock - 1) / convBlock }

// PMF returns the output distribution; it is complete once every block
// has run.
func (c Convolution) PMF() PMF { return c.out }

// Block computes output bins [c0, c1) of block b.  For a support value
// x the source bin of output c is c−x, or c−x+M when c < x, so:
//
//   - x ≤ c0: every bin reads p[c−x], one contiguous run from p[c0−x];
//   - x ≥ c1: every bin wraps and reads p[c−x+M], contiguous from
//     p[c0−x+M];
//   - c0 < x < c1: the run splits at c = x into a wrapped head and an
//     unwrapped tail.
//
// The three ranges partition the ascending support, so walking them in
// turn keeps every bin's terms in ascending x.
func (c Convolution) Block(b int) {
	m := c.out.M
	c0 := b * convBlock
	c1 := min(c0+convBlock, m)
	o := c.out.P[c0:c1]
	lo := sort.Search(len(c.xs), func(i int) bool { return int(c.xs[i]) > c0 })
	hi := sort.Search(len(c.xs), func(i int) bool { return int(c.xs[i]) >= c1 })
	c.runs(o, c.xs[:lo], c.qs[:lo], c0)
	for i := lo; i < hi; i++ {
		x := int(c.xs[i])
		axpy(o[:x-c0], c.p[c0-x+m:], c.qs[i])
		axpy(o[x-c0:], c.p, c.qs[i])
	}
	c.runs(o, c.xs[hi:], c.qs[hi:], c0+m)
}

// runs adds the terms of support values xs to o, where value x reads
// the contiguous run p[base−x:], four values per pass over o.
func (c Convolution) runs(o []float64, xs []int32, qs []float64, base int) {
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		axpy4(o,
			c.p[base-int(xs[i]):], c.p[base-int(xs[i+1]):],
			c.p[base-int(xs[i+2]):], c.p[base-int(xs[i+3]):],
			qs[i], qs[i+1], qs[i+2], qs[i+3])
	}
	for ; i < len(xs); i++ {
		axpy(o, c.p[base-int(xs[i]):], qs[i])
	}
}

// axpy4 adds a0·q0, a1·q1, a2·q2 and a3·q3 to o element-wise, in that
// order, rounding after each product and each addition exactly as four
// axpy calls would.
func axpy4(o, a0, a1, a2, a3 []float64, q0, q1, q2, q3 float64) {
	a0, a1, a2, a3 = a0[:len(o)], a1[:len(o)], a2[:len(o)], a3[:len(o)]
	for i := range o {
		s := o[i]
		s += a0[i] * q0
		s += a1[i] * q1
		s += a2[i] * q2
		s += a3[i] * q3
		o[i] = s
	}
}

// axpy adds a·q to o element-wise.
func axpy(o, a []float64, q float64) {
	a = a[:len(o)]
	for i := range o {
		o[i] += a[i] * q
	}
}

// SelfMatch returns Σp² — the probability two independent draws from p
// are equal.  This is the "Predicted" column of Table 4 when p is the
// k-cell convolution of the measured single-cell distribution.
func (p PMF) SelfMatch() float64 {
	var s float64
	for _, v := range p.P {
		s += v * v
	}
	return s
}
