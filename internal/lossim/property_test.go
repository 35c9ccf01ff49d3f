package lossim

import (
	"math"
	"math/rand/v2"
	"testing"
)

// driveWithPackets feeds n cells through a policy with a StartPacket
// call every pktCells cells (0 = one giant packet) and returns the drop
// pattern.
func driveWithPackets(pol Policy, n, pktCells int, seed uint64) []bool {
	rng := rand.New(rand.NewPCG(seed, seed))
	out := make([]bool, n)
	pol.StartStream(rng)
	for i := range out {
		if pktCells == 0 && i == 0 || pktCells > 0 && i%pktCells == 0 {
			pol.StartPacket(rng)
		}
		out[i] = pol.Drop(rng, false)
	}
	return out
}

// TestCorrelatedRateGridProperty sweeps a parameter grid of both
// matched-rate constructors and checks, for every point, that (a) the
// closed-form AvgLoss equals the requested rate exactly and (b) the
// measured loss over 10⁶ cells lands within 3σ of it.  Because the
// processes are correlated, σ cannot be the i.i.d. √(p(1−p)/n) — runs
// inflate the variance — so the standard error is estimated from the
// means of 100 independent-enough blocks of 10⁴ cells (block length ≫
// mean run length, so block means decorrelate).
func TestCorrelatedRateGridProperty(t *testing.T) {
	const (
		nCells    = 1_000_000
		blockSize = 10_000
		nBlocks   = nCells / blockSize
	)
	type point struct {
		name string
		rate float64
		mk   func() Policy
	}
	var grid []point
	for _, rate := range []float64{0.005, 0.01, 0.04} {
		for _, run := range []float64{2, 5, 10} {
			rate, run := rate, run
			grid = append(grid,
				point{"ge", rate, func() Policy { return GilbertElliottAt(rate, run, rate/5, 0.402) }},
				point{"burstdrop", rate, func() Policy { return BurstDropAt(rate, run) }},
			)
		}
	}
	for gi, pt := range grid {
		pol := pt.mk()
		type avgLosser interface{ AvgLoss() float64 }
		if got := pol.(avgLosser).AvgLoss(); math.Abs(got-pt.rate) > 1e-12 {
			t.Errorf("%s[%d]: AvgLoss() = %v, want exactly %v", pt.name, gi, got, pt.rate)
		}
		drops := driveWithPackets(pol, nCells, 0, uint64(1000+gi))
		var mean float64
		blockMeans := make([]float64, nBlocks)
		for b := 0; b < nBlocks; b++ {
			c := 0
			for i := b * blockSize; i < (b+1)*blockSize; i++ {
				if drops[i] {
					c++
				}
			}
			blockMeans[b] = float64(c) / blockSize
			mean += blockMeans[b]
		}
		mean /= nBlocks
		var vsum float64
		for _, m := range blockMeans {
			vsum += (m - mean) * (m - mean)
		}
		se := math.Sqrt(vsum / (nBlocks - 1) / nBlocks)
		if se == 0 {
			t.Fatalf("%s[%d]: zero block variance; grid point is degenerate", pt.name, gi)
		}
		if diff := math.Abs(mean - pt.rate); diff > 3*se {
			t.Errorf("%s[%d] rate=%v: measured %v is %.1fσ off (σ=%v)",
				pt.name, gi, pt.rate, mean, diff/se, se)
		}
	}
}

// TestCorrelatedStatePersistsAcrossPacketBoundaries is the behavioural
// regression for the PR 4 StartStream/StartPacket contract: both
// correlated policies' StartPacket is a no-op that consumes no RNG, so
// the drop pattern of a stream cut into 100-cell packets must be
// bit-identical to the same stream as one giant packet.  A policy that
// reset its chain (or burned randomness) at packet boundaries would
// diverge within a few packets.
func TestCorrelatedStatePersistsAcrossPacketBoundaries(t *testing.T) {
	const n = 100_000
	for _, mk := range []func() Policy{
		func() Policy { return GilbertElliottAt(0.01, 5, 0.002, 0.402) },
		func() Policy { return BurstDropAt(0.01, 4) },
	} {
		whole := driveWithPackets(mk(), n, 0, 77)
		cut := driveWithPackets(mk(), n, 100, 77)
		name := mk().Name()
		drops := 0
		for i := range whole {
			if whole[i] != cut[i] {
				t.Fatalf("%s: drop pattern diverges at cell %d once packet boundaries are added", name, i)
			}
			if whole[i] {
				drops++
			}
		}
		if drops == 0 {
			t.Fatalf("%s: no drops in %d cells; test is vacuous", name, n)
		}
	}
}

// AvgLoss returns the stationary average cell-loss rate
// πG·DropGood + πB·DropBad, with πB = PGoodBad/(PGoodBad+PBadGood).
func (g *GilbertElliott) AvgLoss() float64 {
	denom := g.PGoodBad + g.PBadGood
	if denom == 0 {
		return g.DropGood
	}
	piB := g.PGoodBad / denom
	return (1-piB)*g.DropGood + piB*g.DropBad
}

// AvgLoss returns the stationary average cell-loss rate.  With s = Start
// and r = Continue, a cell is dropped iff a run is active or starts, and
// the run latch after a dropped cell is set with probability r, so the
// drop rate d satisfies d = d·r + (1−d·r)·s.
func (b *BurstDrop) AvgLoss() float64 {
	return b.Start / (1 - b.Continue + b.Continue*b.Start)
}
